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

from conftest import PROFILE, RESULTS_DIR, write_result


def write_static_results(benchmark_name, settings, results_dir):
    """Run the static experiment and write its Figure 2 and 3 tables."""
    reports = static_experiment(benchmark_name, settings)
    write_result(
        results_dir,
        f"fig2_static_convergence_{benchmark_name}",
        convergence_series(reports),
    )
    write_result(
        results_dir,
        f"fig3_static_totals_{benchmark_name}",
        totals_summary(reports) + "\n" + speedup_summary(reports),
    )
    return reports


@pytest.mark.parametrize("benchmark_name", BENCHMARK_NAMES)
def test_fig2_fig3_static(benchmark_name, settings, results_dir):
    """Regenerate the Figure 2 convergence series and Figure 3 totals."""

    reports = write_static_results(benchmark_name, settings, results_dir)

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
    # The bandit models no recommendation cost, so it is charged no C_rec;
    # PDTool pays its modelled what-if tuning time.
    assert reports["MAB"].total_recommendation_seconds == 0.0
    assert reports["PDTool"].total_recommendation_seconds > 0


@pytest.mark.skipif(
    PROFILE != "quick", reason="the committed tables are the quick profile's"
)
def test_committed_static_tables_regenerate_byte_identically(settings, tmp_path):
    """Two regenerations of the SSB tables equal the committed files byte for byte.

    Every charged cost is a model-second, so a committed table changes only
    when a decision or a cost model does; a stale table fails here.
    """
    names = ("fig2_static_convergence_ssb", "fig3_static_totals_ssb")
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        write_static_results("ssb", settings, tmp_path / run)
        for name in names:
            regenerated = (tmp_path / run / f"{name}.txt").read_bytes()
            assert regenerated == (RESULTS_DIR / f"{name}.txt").read_bytes(), name
