"""Compare two perfbench results against the bounds in ``BENCHMARK.json``.

Usage::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 > base.out
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 > head.out
    python -m tools.perf_gate base.out head.out

Each argument is a file whose last non-empty line is the JSON object perfbench
prints (``correct``, ``attempted``, ``failed``, ``metrics``).  Both runs must
come from the same machine: the gate compares them with each other, not with
numbers committed elsewhere.

Exit status:

* 0 — head is correct and within every bound;
* 1 — head is not correct, fails a larger share of its checks than base, or
  an ``end_to_end`` metric of some workload is worse than base by more than
  ``bound × base`` (the metric's ``better`` direction decides what is worse);
* 2 — an input cannot be read, or the two results share no bounded metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_result(path: str) -> dict:
    """The JSON object on the last non-empty line of ``path``."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError(f"{path}: last line is not a perfbench result")
    return result


def failed_share(result: dict) -> float:
    attempted = result.get("attempted") or 0
    return result.get("failed", 0) / attempted if attempted else 1.0


def metric_value(result: dict, key: str) -> float | None:
    entry = result["metrics"].get(key)
    value = entry.get("value") if isinstance(entry, dict) else None
    return value if isinstance(value, (int, float)) else None


def regressions(base: dict, head: dict, bounds: dict[str, dict]) -> tuple[int, list[str]]:
    """``(metrics compared, one message per metric worse than its bound)``.

    Keys are ``<metric>`` for a single-workload run and ``<workload>.<metric>``
    for ``--workload all``; the metric name is the part after the last dot.
    """
    compared, failures = 0, []
    for key in sorted(base["metrics"]):
        spec = bounds.get(key.rsplit(".", 1)[-1])
        before, after = metric_value(base, key), metric_value(head, key)
        if spec is None or before is None or after is None:
            continue
        compared += 1
        slack = spec["bound"] * abs(before)
        worse = after > before + slack if spec["better"] == "lower" else after < before - slack
        if worse:
            failures.append(f"{key}: {before:.6g} -> {after:.6g} {spec['unit']} (bound {spec['bound']:.0%})")
    return compared, failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m tools.perf_gate BASE HEAD", file=sys.stderr)
        return 2
    try:
        base, head = load_result(args[0]), load_result(args[1])
        bounds = {spec["name"]: spec for spec in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    except (OSError, ValueError, KeyError) as error:
        print(f"perf-gate: cannot read inputs: {error}", file=sys.stderr)
        return 2

    compared, failures = regressions(base, head, bounds)
    if compared == 0:
        print("perf-gate: base and head share no bounded metric", file=sys.stderr)
        return 2
    if head.get("correct") is not True:
        failures.insert(0, "head run is not correct")
    if failed_share(head) > failed_share(base):
        failures.insert(0, f"failed share rose: {failed_share(base):.4g} -> {failed_share(head):.4g}")
    print(f"perf-gate: {compared} metrics compared, {len(failures)} failure(s)")
    for failure in failures:
        print(f"  FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
