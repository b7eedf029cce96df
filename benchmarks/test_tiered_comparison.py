"""Tiered-placement tuning comparison: does the bandit adapt to *where data lives*?

Races the same MAB tuner over the identical TPC-H quick workload under three
placements of the same data:

* ``all_hdd`` — every table on spinning disk (PR 4's baseline profile);
* ``hot_cold`` — the two hottest tables (``lineitem``, ``orders``) pinned in
  memory via :class:`~repro.api.TieredBackend`, the rest cold on hdd;
* ``cloud`` — every table on the object-store profile (latency-dominated
  random reads).

Index economics differ per placement: indexes on in-memory tables buy almost
nothing (their scans are already CPU-bound), while on the object store only
covering indexes survive the ruinous random-fetch price.  The headline
assertion is the ISSUE 5 acceptance bar: at least two *distinct* converged
index sets across the three placements.

A second scenario turns data movement itself into a workload shift: a run
starts all-hdd, ``promote``\\ s ``lineitem`` into memory mid-run, and later
``demote``\\ s it back — the bandit's observed times (and the value of its
materialised indexes) change under it without any query change.

Results go to ``benchmarks/results/BENCH_tiered.json`` (plus a formatted
``BENCH_tiered.txt``).
"""

from __future__ import annotations

import json
import statistics

from repro.api import (
    DatabaseSpec,
    SimulationOptions,
    TieredBackend,
    TuningSession,
    create_tuner,
)
from repro.workloads import StaticWorkload, get_benchmark

from conftest import write_result

ROUNDS = 20
SPEC = DatabaseSpec("tpch", scale_factor=1.0, sample_rows=500, seed=7)

HOT_TABLES = ("lineitem", "orders")

#: The three placements of the acceptance bar, as SimulationOptions kwargs.
PLACEMENTS = {
    "all_hdd": {"backend": "hdd"},
    "hot_cold": {"table_backends": TieredBackend(hot_tables=HOT_TABLES)},
    "cloud": {"backend": "cloud"},
}


def run_placement(options_kwargs: dict, workload_rounds) -> dict:
    """One MAB run under one placement; returns the serialisable record."""
    database = SPEC.create()
    session = TuningSession(
        database,
        create_tuner("MAB", database),
        SimulationOptions(benchmark_name="tpch", **options_kwargs),
    )
    for workload_round in workload_rounds:
        session.step_workload_round(workload_round)
    report = session.report
    return {
        "backend": database.backend_profile.name,
        "table_backends": {
            name: profile.name
            for name, profile in sorted(database.table_backends.items())
        },
        "per_round_total_seconds": [round(s, 4) for s in report.per_round_totals()],
        "total_seconds": round(report.total_seconds, 4),
        "creation_seconds": round(report.total_creation_seconds, 4),
        "final_configuration": sorted(
            index.index_id for index in database.materialised_indexes
        ),
        "final_index_count": len(database.materialised_indexes),
        "final_index_bytes": database.used_index_bytes,
    }


def run_migration(workload_rounds) -> dict:
    """Promote/demote ``lineitem`` mid-run: data movement as a workload shift."""
    database = SPEC.create()
    session = TuningSession(
        database,
        create_tuner("MAB", database),
        SimulationOptions(benchmark_name="tpch", backend="hdd"),
    )
    third = max(1, len(workload_rounds) // 3)
    phases = {
        "cold": workload_rounds[:third],
        "promoted": workload_rounds[third : 2 * third],
        "demoted": workload_rounds[2 * third :],
    }
    record: dict = {"hot_table": "lineitem", "phases": {}}
    for phase_name, rounds in phases.items():
        if phase_name == "promoted":
            database.promote("lineitem", "inmemory")
        elif phase_name == "demoted":
            database.demote("lineitem")
        execution = [
            session.step_workload_round(r).execution_seconds for r in rounds
        ]
        record["phases"][phase_name] = {
            "rounds": len(rounds),
            "execution_seconds": [round(s, 4) for s in execution],
            "mean_execution_seconds": round(statistics.fmean(execution), 4),
            "configuration": sorted(
                index.index_id for index in database.materialised_indexes
            ),
        }
    return record


def test_tiered_comparison(results_dir):
    # One workload materialisation shared by every placement: placement only
    # re-times execution, so all runs face byte-identical query streams.
    benchmark = get_benchmark("tpch")
    workload_rounds = StaticWorkload(
        SPEC.create(), benchmark.templates, n_rounds=ROUNDS, seed=1
    ).materialise()

    results = {
        name: run_placement(kwargs, workload_rounds)
        for name, kwargs in PLACEMENTS.items()
    }
    migration = run_migration(workload_rounds)

    final_sets = {name: frozenset(r["final_configuration"]) for name, r in results.items()}
    distinct_sets = len(set(final_sets.values()))
    payload = {
        "benchmark": "tpch",
        "rounds": ROUNDS,
        "tuner": "MAB",
        "hot_tables": list(HOT_TABLES),
        "placements": results,
        "distinct_final_sets": distinct_sets,
        "migration": migration,
    }
    (results_dir / "BENCH_tiered.json").write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"MAB on TPC-H quick across placements (rounds={ROUNDS})"]
    for name, entry in results.items():
        placement = entry["table_backends"] or f"uniform {entry['backend']}"
        lines.append(
            f"  {name:>8}: total {entry['total_seconds']:>10.1f} s model-time, "
            f"final {entry['final_index_count']:>2} indexes / "
            f"{entry['final_index_bytes'] / 1e6:>7.1f} MB  ({placement})"
        )
    lines.append(f"  distinct converged index sets: {distinct_sets} of {len(results)}")
    means = {
        phase: record["mean_execution_seconds"]
        for phase, record in migration["phases"].items()
    }
    lines.append(
        "  migration (promote/demote lineitem): mean exec "
        f"cold {means['cold']:.1f} s -> promoted {means['promoted']:.1f} s "
        f"-> demoted {means['demoted']:.1f} s"
    )
    write_result(results_dir, "BENCH_tiered", "\n".join(lines))

    # The acceptance bar: placement changes what the bandit converges to,
    # not just how fast the same configuration runs.
    assert distinct_sets >= 2, f"all placements converged identically: {final_sets}"
    # Hot tables in memory must make the same workload cheaper than all-hdd.
    assert results["hot_cold"]["total_seconds"] < results["all_hdd"]["total_seconds"]
    # Every run actually built something.
    for name, entry in results.items():
        assert entry["final_index_count"] >= 1, f"{name} built no indexes"
        assert entry["creation_seconds"] > 0
    # The migration is visible in the observations: promoting the dominant
    # table cuts the mean round execution time, demoting raises it again.
    assert means["promoted"] < means["cold"]
    assert means["demoted"] > means["promoted"]
