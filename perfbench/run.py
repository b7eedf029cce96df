"""Closed-loop tuning-round benchmark for the MAB index tuner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer metrics.
Each run prints every metric by name with its unit, runs the correctness
checks, writes its result (run header included) to ``perfbench/out/`` and
prints one JSON object as the last line of standard output.  The exit code
is 0 only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

#: BLAS thread settings, fixed before numpy loads so the run stays one
#: process with at most one BLAS thread.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tpch_static", "tpcds_adhoc", "fleet_tpch", "ssb_ingest")


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_header(scenario: object, seed: int, seconds: float, trace: int) -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {variable: os.environ.get(variable) for variable in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "processes": 1,
        "threads": threading.active_count(),
        "git_sha": git_sha(ROOT),
        "workload": scenario.name,
        "why": scenario.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": scenario.params(),
    }


def _show(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int, declared: dict) -> dict:
    from pb_measure import measure
    from pb_stats import check_metric_name, unit_of
    from pb_workloads import make_scenario

    scenario = make_scenario(name, seed)
    header = run_header(scenario, seed, seconds, trace)
    outcome = measure(scenario, seconds, bool(trace))
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else None

    print(f"# {name}: seed {seed}, {seconds:g} s, trace {trace}, {outcome.episodes} episodes; "
          f"{header['python']}, numpy {header['numpy']}, {header['blas']['name']} {header['blas']['version']}, "
          f"BLAS threads {header['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc {header['nproc']}, "
          f"git {header['git_sha'] or 'n/a'}")
    if trace:
        shown = outcome.per_layer
    else:
        shown = {**outcome.end_to_end, "failed_frac": failed_frac}
    for metric, value in shown.items():
        note = outcome.notes.get(metric, "")
        if metric in outcome.raw:
            note = f"raw wall {_show(outcome.raw[metric])}; {note}"
        print(f"{name:<12} {metric:<42} {_show(value):>14} {unit_of(metric):<6} {note}".rstrip())
    print(f"{name:<12} {'checks':<42} {outcome.attempted - outcome.failed} of {outcome.attempted} "
          f"{'tenant-rounds' if scenario.tenants > 1 else 'rounds'} passed")
    for message in outcome.messages:
        print(f"{name}: FAILED {message}", file=sys.stderr)

    metrics = {}
    missing = []
    for entry in declared["per_layer" if trace else "end_to_end"]:
        value = shown.get(check_metric_name(entry["name"]))
        if value is None:
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        print(f"{name}: FAILED not measured: {', '.join(missing)}", file=sys.stderr)
    correct = outcome.failed == 0 and not missing and outcome.attempted > 0

    OUT.mkdir(exist_ok=True)
    result = {
        "header": header,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.messages,
        "metrics": {m: {"value": v, "unit": unit_of(m), "note": outcome.notes.get(m)} for m, v in shown.items()},
        "raw_wall": outcome.raw,
        "samples": {"untraced_rounds": len(outcome.untraced), "traced_rounds": len(outcome.traced)},
    }
    (OUT / f"{name}-trace{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        with gzip.open(OUT / f"{name}-spans.json.gz", "wt", compresslevel=1) as handle:
            json.dump({"header": header, **outcome.spans}, handle, separators=(",", ":"))
    return {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        raise SystemExit(f"perfbench: missing {declared_path}")
    declared = json.loads(declared_path.read_text())
    load_program()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, declared) for name in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
