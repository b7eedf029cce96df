"""Summary statistics and metric-name rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics
import time
from typing import Sequence

import numpy as np

#: Characters a metric or workload name may use.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``.

    A name starts with a letter or digit, uses only ``[A-Za-z0-9_.-]`` and
    has at most 64 characters.
    """
    if len(name) > 64 or not METRIC_NAME.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def unit_of(name: str) -> str:
    """The unit a metric is reported in, read from its name's suffix."""
    if name == "rounds_per_s":
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_us_per_query", "us"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ratio" if "ratio" in name or name.endswith("_frac") else "count"


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(
    values: Sequence[float], cap: float = 90.0, beyond: int = 10
) -> tuple[float, float, int] | None:
    """The highest nearest-rank percentile with at least ``beyond`` samples above it.

    The percentile is capped at ``cap`` (p90 once there are 100 samples or
    more).  Returns ``(value, percentile, sample_count)``, or ``None`` when
    there are too few samples for any percentile to have ``beyond`` samples
    above it.
    """
    n = len(values)
    rank = min(n - beyond, math.ceil(cap * n / 100.0))
    if rank < 1:
        return None
    ordered = sorted(values)
    return float(ordered[rank - 1]), 100.0 * rank / n, n


# --------------------------------------------------------------------- #
# machine-speed calibration
# --------------------------------------------------------------------- #
#: The calibration kernel's median time (ns) on an idle 2-vCPU Xeon VM.
#: Normalised timings are wall times scaled to a machine that runs the
#: kernel this fast.
KERNEL_REFERENCE_NS = 850_000

_KERNEL_VALUES = np.random.default_rng(0).integers(0, 500, size=2000)


def calibration_kernel() -> int:
    """Fixed work shaped like a tuning round's: dict and tuple churn, small numpy passes.

    It calls nothing in the program, so its speed moves only with the
    machine: a busy neighbour on a shared host slows it as much as it slows
    the rounds.
    """
    counts: dict[tuple[int, int], int] = {}
    for i in range(600):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    total = len(sorted(counts.items()))
    for _ in range(8):
        total += len(np.unique(_KERNEL_VALUES)) + int((_KERNEL_VALUES < 250).sum())
    return total


def time_kernel(repetitions: int) -> list[int]:
    """Wall nanoseconds of ``repetitions`` calibration-kernel calls.

    One untimed call comes first, so the timed ones find the kernel's data
    in cache whatever ran before: the figure follows the machine, not the
    program's own cache footprint.
    """
    calibration_kernel()
    times = []
    for _ in range(repetitions):
        started = time.perf_counter_ns()
        calibration_kernel()
        times.append(time.perf_counter_ns() - started)
    return times


def normalise(values: Sequence[float], kernels: Sequence[Sequence[int]], min_samples: int = 9) -> list[float]:
    """Scale each value to the reference machine speed measured around it.

    ``kernels[i]`` holds the kernel times taken during or right after
    ``values[i]``.  Value ``i`` is scaled by the reference time over the
    median of the kernel times of the nearest rounds: its own, then
    ``i - 1`` to ``i + 1``, and so on, until at least ``min_samples`` (or
    every sample) are in.
    """
    if len(values) != len(kernels):
        raise ValueError("one list of kernel times per value")
    total = sum(len(ks) for ks in kernels)
    scaled = []
    for i, value in enumerate(values):
        window = 0
        while True:
            nearby = [k for ks in kernels[max(0, i - window): i + window + 1] for k in ks]
            if len(nearby) >= min(min_samples, total):
                break
            window += 1
        scaled.append(value * KERNEL_REFERENCE_NS / median(nearby))
    return scaled
