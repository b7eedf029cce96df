"""Figures 2 and 3: MAB vs PDTool vs NoIndex on *static* workloads.

Figure 2 plots the total time per round (convergence) for each of the five
benchmarks; Figure 3 summarises the total end-to-end workload time.  The
paper's headline observations for this setting:

* both tuners improve substantially over NoIndex on SSB and TPC-H;
* PDTool retains an edge on uniform static workloads (it is handed a perfectly
  representative training workload and benefits from index merging);
* MAB wins or ties on the skewed benchmarks and on TPC-DS, where PDTool's
  recommendation time and optimiser misestimates start to hurt.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    convergence_series,
    speedup_summary,
    static_experiment,
    totals_summary,
)
from repro.workloads import BENCHMARK_NAMES

from conftest import write_result


@pytest.mark.parametrize("benchmark_name", BENCHMARK_NAMES)
def test_fig2_fig3_static(benchmark_name, settings, results_dir):
    """Regenerate the Figure 2 convergence series and Figure 3 totals."""

    reports = static_experiment(benchmark_name, settings)

    convergence = convergence_series(reports)
    totals = totals_summary(reports)
    speedup = speedup_summary(reports)
    write_result(
        results_dir,
        f"fig2_static_convergence_{benchmark_name}",
        convergence,
    )
    write_result(
        results_dir,
        f"fig3_static_totals_{benchmark_name}",
        totals + "\n" + speedup,
    )

    # Structural assertions: all tuners ran the same rounds, and indexing
    # helps — the better of the two tuners beats NoIndex on execution time
    # (at the quick profile's low round counts the one-off recommendation and
    # creation investments are not always amortised yet, so the total-time
    # check allows a modest margin).
    n_rounds = {report.n_rounds for report in reports.values()}
    assert len(n_rounds) == 1
    noindex = reports["NoIndex"]
    best_tuned_execution = min(
        reports["PDTool"].total_execution_seconds, reports["MAB"].total_execution_seconds
    )
    assert best_tuned_execution < noindex.total_execution_seconds
    best_tuned_total = min(reports["PDTool"].total_seconds, reports["MAB"].total_seconds)
    assert best_tuned_total < noindex.total_seconds * 1.35
    # The bandit's recommendation overhead stays negligible (paper: <1-2 %).
    mab = reports["MAB"]
    assert mab.total_recommendation_seconds < 0.05 * mab.total_seconds
