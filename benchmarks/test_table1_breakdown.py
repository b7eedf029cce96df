"""Table I: total time breakdown (recommendation / creation / execution / total).

The paper's Table I reports, for every (workload regime x benchmark) cell, the
minutes each tuner spends recommending, creating indexes and executing
queries.  Two qualitative observations drive the paper's "final verdict":

* MAB's recommendation time is negligible and stable, while PDTool's grows
  with workload size and complexity (TPC-DS dynamic random is the extreme);
* MAB spends more on index creation (it explores by materialising), yet its
  execution time is better in most cells.

This benchmark regenerates the full breakdown and the exploration-cost
summary of Section V-B3.  To keep the default run short it covers a
representative subset of benchmarks per regime; set the environment variable
``REPRO_BENCH_PROFILE=paper`` and edit ``BENCHMARKS`` below to run all 15
cells at full scale.
"""

from __future__ import annotations

from repro.harness import exploration_cost_summary, table1_breakdown, table1_breakdown_experiment

from conftest import PROFILE, write_result

#: Benchmarks per regime covered in the default (quick) profile.
BENCHMARKS = ("ssb", "tpch", "tpch_skew", "tpcds", "imdb") if PROFILE == "paper" else (
    "ssb", "tpch_skew", "imdb"
)
WORKLOAD_TYPES = ("static", "shifting", "random")


def test_table1_breakdown(settings, results_dir):
    """Regenerate Table I (and the exploration-cost discussion of Section V-B3)."""

    breakdown = table1_breakdown_experiment(
        benchmark_names=BENCHMARKS,
        workload_types=WORKLOAD_TYPES,
        settings=settings,
        tuners=("PDTool", "MAB"),
    )

    write_result(results_dir, "table1_breakdown", table1_breakdown(breakdown))
    exploration_lines = []
    for workload_type, benchmarks in breakdown.items():
        for benchmark_name, reports in benchmarks.items():
            exploration_lines.append(f"[{workload_type} / {benchmark_name}]")
            exploration_lines.append(exploration_cost_summary(reports))
    write_result(results_dir, "table1_exploration_cost", "\n".join(exploration_lines))

    # Every requested cell is present and fully populated.
    assert set(breakdown) == set(WORKLOAD_TYPES)
    for workload_type in WORKLOAD_TYPES:
        assert set(breakdown[workload_type]) == set(BENCHMARKS)
        for reports in breakdown[workload_type].values():
            assert {"PDTool", "MAB"} <= set(reports)

    # Recommendation time: the MAB models none, so its C_rec is 0 in every
    # cell; PDTool's is largest in the dynamic random regime (it is
    # re-invoked throughout the run on growing workloads).
    for workload_type in WORKLOAD_TYPES:
        for reports in breakdown[workload_type].values():
            assert reports["MAB"].total_recommendation_seconds == 0.0
    for benchmark_name in BENCHMARKS:
        static_pdtool = breakdown["static"][benchmark_name]["PDTool"]
        random_pdtool = breakdown["random"][benchmark_name]["PDTool"]
        assert (
            random_pdtool.total_recommendation_seconds
            >= static_pdtool.total_recommendation_seconds
        )
