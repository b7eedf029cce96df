"""Multi-backend tuning comparison: does the bandit adapt to the storage tier?

Races the same MAB tuner over the identical TPC-H quick workload on each
registered backend profile (``hdd``/``ssd``/``inmemory``/``cloud``) and
records, per backend, the convergence series and the final index
configuration.  The
point of the scenario axis: index economics change with the storage tier —
random I/O is what secondary indexes buy their keep with, so when it gets
~25x cheaper (ssd) the tuner should converge to a *different*, typically
leaner, configuration than on spinning disks.

Results go to ``benchmarks/results/BENCH_backends.json`` (plus a formatted
``BENCH_backends.txt``) so the behavioural gap is tracked from PR to PR.
The headline assertion is the ISSUE 4 acceptance bar: the MAB tuner selects
measurably different final index sets (or budgets) on ``ssd`` vs ``hdd``.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.api import DatabaseSpec, SimulationOptions, TuningSession, create_tuner
from repro.engine import get_backend, registered_backend_names
from repro.workloads import StaticWorkload, get_benchmark

from conftest import write_result

ROUNDS = 20
SPEC = DatabaseSpec("tpch", scale_factor=1.0, sample_rows=500, seed=7)


def run_backend(backend_name: str, workload_rounds) -> dict:
    """One MAB run on one backend; returns the serialisable result record."""
    database = replace(SPEC, backend=backend_name).create()
    session = TuningSession(
        database,
        create_tuner("MAB", database),
        SimulationOptions(benchmark_name="tpch"),
    )
    for workload_round in workload_rounds:
        session.step_workload_round(workload_round)
    report = session.report
    return {
        "profile": get_backend(backend_name).summary(),
        "per_round_total_seconds": [round(s, 4) for s in report.per_round_totals()],
        "per_round_execution_seconds": [round(s, 4) for s in report.per_round_execution()],
        "total_seconds": round(report.total_seconds, 4),
        "creation_seconds": round(report.total_creation_seconds, 4),
        "final_configuration": sorted(
            index.index_id for index in database.materialised_indexes
        ),
        "final_index_count": len(database.materialised_indexes),
        "final_index_bytes": database.used_index_bytes,
    }


def test_backend_comparison(results_dir):
    # One workload materialisation shared by every backend: the profile only
    # re-times execution, so all runs face byte-identical query streams.
    benchmark = get_benchmark("tpch")
    workload_rounds = StaticWorkload(
        SPEC.create(), benchmark.templates, n_rounds=ROUNDS, seed=1
    ).materialise()

    backends = registered_backend_names()
    results = {name: run_backend(name, workload_rounds) for name in backends}

    payload = {
        "benchmark": "tpch",
        "rounds": ROUNDS,
        "tuner": "MAB",
        "backends": results,
    }
    (results_dir / "BENCH_backends.json").write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"MAB on TPC-H quick across storage backends (rounds={ROUNDS})"]
    for name in backends:
        entry = results[name]
        lines.append(
            f"  {name:>8}: total {entry['total_seconds']:>10.1f} s model-time, "
            f"final {entry['final_index_count']:>2} indexes / "
            f"{entry['final_index_bytes'] / 1e6:>7.1f} MB "
            f"(rand/seq ratio {entry['profile']['random_to_sequential_ratio']})"
        )
    hdd_set = set(results["hdd"]["final_configuration"])
    ssd_set = set(results["ssd"]["final_configuration"])
    lines.append(
        f"  hdd vs ssd final sets: {len(hdd_set & ssd_set)} shared, "
        f"{len(hdd_set - ssd_set)} hdd-only, {len(ssd_set - hdd_set)} ssd-only"
    )
    write_result(results_dir, "BENCH_backends", "\n".join(lines))

    # The same workload gets cheaper down the storage tiers...
    assert (
        results["hdd"]["total_seconds"]
        > results["ssd"]["total_seconds"]
        > results["inmemory"]["total_seconds"]
    )
    # ...and the bandit *behaves* differently, not just faster: the converged
    # configuration on flash differs measurably from the spinning-disk one
    # (acceptance bar: different final index sets, or different budgets).
    assert (
        hdd_set != ssd_set
        or results["hdd"]["final_index_bytes"] != results["ssd"]["final_index_bytes"]
    ), "MAB converged to identical configurations on hdd and ssd"
    # every run actually built something
    for name in backends:
        assert results[name]["final_index_count"] >= 1
        assert results[name]["creation_seconds"] > 0
