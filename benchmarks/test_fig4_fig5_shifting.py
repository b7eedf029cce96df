"""Figures 4 and 5: MAB vs PDTool vs NoIndex on *dynamic shifting* workloads.

The workload moves through disjoint template groups (data-exploration style);
PDTool is re-invoked right after every shift with the new group as its
training workload (a DBA-favourable assumption), while the bandit detects the
shift from the queries themselves and partially forgets what it has learned.
Figure 4 shows per-round convergence with visible spikes at the shift rounds;
Figure 5 summarises total end-to-end workload time.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    convergence_series,
    shifting_experiment,
    speedup_summary,
    totals_summary,
)
from repro.workloads import BENCHMARK_NAMES

from conftest import write_result


@pytest.mark.parametrize("benchmark_name", BENCHMARK_NAMES)
def test_fig4_fig5_shifting(benchmark_name, settings, results_dir):
    """Regenerate the Figure 4 convergence series and Figure 5 totals."""

    reports = shifting_experiment(benchmark_name, settings)

    write_result(
        results_dir,
        f"fig4_shifting_convergence_{benchmark_name}",
        convergence_series(reports),
    )
    write_result(
        results_dir,
        f"fig5_shifting_totals_{benchmark_name}",
        totals_summary(reports) + "\n" + speedup_summary(reports),
    )

    expected_rounds = settings.shifting_groups * settings.shifting_rounds_per_group
    assert all(report.n_rounds == expected_rounds for report in reports.values())
    # Shift rounds are flagged so the spikes in Figure 4 can be located.
    shift_rounds = [r.round_number for r in reports["MAB"].rounds if r.is_shift_round]
    assert len(shift_rounds) == settings.shifting_groups - 1
    # The bandit adapts: it never degenerates to worse than NoIndex execution.
    assert (
        reports["MAB"].total_execution_seconds
        <= reports["NoIndex"].total_execution_seconds * 1.05
    )
