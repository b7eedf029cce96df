"""Figure 8: MAB vs DDQN / DDQN-SC vs PDTool on static TPC-H and TPC-H Skew.

The paper's "Why Not (General) Reinforcement Learning?" section compares the
bandit against a double-DQN agent (4x8 hidden layers, gamma 0.99, epsilon
decaying 1 -> 0.01 over 2,400 samples) and its single-column variant, over 100
rounds repeated 10 times.  Its findings: the bandit converges faster and more
consistently (narrow inter-quartile range), DDQN beats DDQN-SC on execution
time thanks to its richer candidate space, and MAB beats both end to end.

The quick profile uses fewer rounds and repetitions; the aggregation (mean,
median, inter-quartile range) matches the paper's plots.
"""

from __future__ import annotations

import pytest

from repro.harness import aggregate_rl_series, format_table, rl_comparison_experiment

from conftest import write_result

TUNERS = ("PDTool", "MAB", "DDQN", "DDQN_SC")


@pytest.mark.parametrize("benchmark_name", ["tpch", "tpch_skew"])
def test_fig8_rl_comparison(benchmark_name, settings, results_dir):
    """Regenerate Figure 8 (a-d): totals and convergence with repetition spread."""

    repetition_reports = rl_comparison_experiment(benchmark_name, settings, tuners=TUNERS)

    # Totals broken down by component, averaged over repetitions (Fig. 8 a/b).
    rows = []
    for tuner in TUNERS:
        reports = repetition_reports[tuner]
        n = len(reports)
        rows.append([
            tuner,
            f"{sum(r.total_recommendation_seconds for r in reports) / n:.1f}",
            f"{sum(r.total_creation_seconds for r in reports) / n:.1f}",
            f"{sum(r.total_execution_seconds for r in reports) / n:.1f}",
            f"{sum(r.total_seconds for r in reports) / n:.1f}",
        ])
    totals_table = format_table(
        ["tuner", "recommendation_s", "creation_s", "execution_s", "total_s"], rows
    )
    write_result(results_dir, f"fig8_totals_{benchmark_name}", totals_table)

    # Convergence with median and inter-quartile range (Fig. 8 c/d).
    series_rows = []
    aggregated = {tuner: aggregate_rl_series(repetition_reports[tuner]) for tuner in TUNERS}
    n_rounds = len(aggregated["MAB"]["median"])
    for position in range(n_rounds):
        row = [str(position + 1)]
        for tuner in TUNERS:
            series = aggregated[tuner]
            row.append(
                f"{series['median'][position]:.0f}"
                f" [{series['q1'][position]:.0f},{series['q3'][position]:.0f}]"
            )
        series_rows.append(row)
    convergence_table = format_table(["round"] + [f"{t} median[q1,q3]" for t in TUNERS], series_rows)
    write_result(results_dir, f"fig8_convergence_{benchmark_name}", convergence_table)

    # Structural checks mirroring the paper's qualitative claims.
    assert all(len(repetition_reports[t]) == settings.rl_repetitions for t in TUNERS)
    mab_mean_total = sum(r.total_seconds for r in repetition_reports["MAB"]) / settings.rl_repetitions
    ddqn_mean_total = sum(r.total_seconds for r in repetition_reports["DDQN"]) / settings.rl_repetitions
    noindex_like_bound = max(r.total_seconds for r in repetition_reports["DDQN_SC"]) * 3
    assert mab_mean_total < noindex_like_bound
    # MAB's recommendation overhead stays negligible even over many rounds.
    assert all(
        r.total_recommendation_seconds < 0.05 * r.total_seconds
        for r in repetition_reports["MAB"]
    )
    # The bandit is at least competitive with the deep-RL agent end to end.
    assert mab_mean_total <= ddqn_mean_total * 1.25
