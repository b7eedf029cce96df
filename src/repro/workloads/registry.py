"""Look benchmarks and stressors up by name in their fixed tables."""

from __future__ import annotations

from typing import Callable

from repro.engine.errors import UnknownNameError, lookup_name

from .base import Benchmark
from .generator import WorkloadSequence
from .imdb import build_benchmark as _build_imdb
from .ssb import build_benchmark as _build_ssb
from .stress import STRESSORS
from .tpch import build_benchmark as _build_tpch
from .tpch_skew import build_skewed_benchmark as _build_tpch_skew
from .tpcds import build_benchmark as _build_tpcds

_BUILDERS: dict[str, Callable[[], Benchmark]] = {
    "tpch": _build_tpch,
    "tpch_skew": _build_tpch_skew,
    "ssb": _build_ssb,
    "tpcds": _build_tpcds,
    "imdb": _build_imdb,
}

#: The order in which the paper presents its five benchmarks.
BENCHMARK_NAMES = ["ssb", "tpch", "tpch_skew", "tpcds", "imdb"]


def available_benchmarks() -> list[str]:
    """Names accepted by :func:`get_benchmark`."""
    return sorted(_BUILDERS)


def get_benchmark(name: str) -> Benchmark:
    """Build the named benchmark.

    Raises :class:`~repro.engine.errors.UnknownNameError` (a ``KeyError``
    *and* ``ValueError``) naming the benchmarks when the name is unknown.
    """
    return lookup_name(_BUILDERS, name, "benchmark", UnknownNameError)()


class UnknownStressorError(UnknownNameError):
    """Raised when a name is not one of the stressors; lists valid names."""


def available_stressors() -> list[str]:
    """Names accepted by :func:`get_stressor`."""
    return sorted(STRESSORS)


def get_stressor(name: str) -> type[WorkloadSequence]:
    """Look up a stressor class by name.

    Raises :class:`UnknownStressorError` (a ``KeyError`` *and* ``ValueError``)
    naming the stressors when the name is unknown.
    """
    return lookup_name(STRESSORS, name, "stressor", UnknownStressorError)


