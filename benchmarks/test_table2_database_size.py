"""Table II: static TPC-H and TPC-H Skew under different database sizes.

The paper runs the static experiment at scale factors 1, 10 and 100 and
reports total workload minutes for PDTool and MAB.  Its observations: at SF 1
the two are close; as the database grows, execution time dominates (>91 % of
total) and the cost of sub-optimal index choices is magnified, which is where
the bandit's observation-driven search pays off most on skewed data.
"""

from __future__ import annotations

from repro.harness import table2_database_size, table2_database_size_experiment

from conftest import PROFILE, write_result

SCALE_FACTORS = (1.0, 10.0, 100.0) if PROFILE == "paper" else (1.0, 10.0)


def test_table2_database_size(settings, results_dir):
    """Regenerate Table II."""

    results = table2_database_size_experiment(
        benchmark_names=("tpch", "tpch_skew"),
        scale_factors=SCALE_FACTORS,
        settings=settings,
        tuners=("PDTool", "MAB"),
    )

    sections = []
    for benchmark_name, by_scale in results.items():
        sections.append(f"[{benchmark_name}]")
        sections.append(table2_database_size(by_scale))
    write_result(results_dir, "table2_database_size", "\n".join(sections))

    for benchmark_name in ("tpch", "tpch_skew"):
        by_scale = results[benchmark_name]
        assert set(by_scale) == set(SCALE_FACTORS)
        # total workload time grows with the database size for both tuners
        for tuner in ("PDTool", "MAB"):
            totals = [by_scale[scale][tuner].total_seconds for scale in sorted(by_scale)]
            assert totals == sorted(totals)
        # execution dominates at the larger scale factors (paper: >91 %)
        largest = by_scale[max(by_scale)]
        for tuner in ("PDTool", "MAB"):
            report = largest[tuner]
            assert report.total_execution_seconds > 0.5 * report.total_seconds
