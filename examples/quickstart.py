"""Quickstart: compare NoIndex, PDTool and the MAB tuner on a small TPC-H setup.

Built on the public API (:mod:`repro.api`): a picklable
:class:`~repro.api.DatabaseSpec` describes the identically-seeded databases,
the tuners are named through the registry, and :func:`~repro.api.run_competition`
races them over one shared workload (pass ``workers=3`` to fan the three
tuners out across processes).

Runs a short static workload (the paper's Figure 2/3 setting, scaled down so
it finishes in a few seconds) and prints the per-round convergence series and
the end-to-end totals.

Run with::

    python examples/quickstart.py

``REPRO_SMOKE=1`` shrinks it further for CI smoke runs.
"""

from __future__ import annotations

import os

from repro.api import SimulationOptions, run_competition
from repro.harness import (
    ExperimentSettings,
    build_workload_rounds,
    convergence_series,
    speedup_summary,
    totals_summary,
)
from repro.workloads import get_benchmark

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    settings = ExperimentSettings.quick().with_overrides(
        static_rounds=4 if SMOKE else 10,
        sample_rows=500 if SMOKE else 2000,
        scale_factor=1.0 if SMOKE else 10.0,
    )
    benchmark = get_benchmark("tpch")
    database_spec = settings.database_spec(benchmark.name)
    rounds = build_workload_rounds(benchmark, database_spec.create(), "static", settings)
    options = SimulationOptions(benchmark_name="tpch", noise_sigma=settings.noise_sigma)

    print(f"Running a {len(rounds)}-round static TPC-H experiment "
          "(NoIndex vs PDTool vs MAB)...")
    spec = settings.tuner_spec("tpch", "static")
    reports = run_competition(
        database_spec,
        {name: (name, spec) for name in ("NoIndex", "PDTool", "MAB")},
        rounds,
        options,
    )

    print("\nTotal time per round (model-seconds), one column per tuner:")
    print(convergence_series(reports))

    print("\nEnd-to-end totals:")
    print(totals_summary(reports))
    print()
    print(speedup_summary(reports, candidate="MAB", baseline="PDTool"))
    print(speedup_summary(reports, candidate="MAB", baseline="NoIndex"))

    mab = reports["MAB"]
    print(
        f"\nMAB spent {mab.total_creation_seconds:.0f}s creating indexes and "
        f"{mab.total_execution_seconds:.0f}s executing queries (model-seconds); "
        f"its recommend calls took {mab.wall_phase_totals()['recommend']:.2f}s "
        f"of host wall time, which is not charged."
    )


if __name__ == "__main__":
    main()
