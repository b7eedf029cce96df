"""End-to-end integration tests across engine, optimiser, tuners and harness."""

import pytest

from repro import quickstart
from repro.harness import ExperimentSettings, run_workload_experiment, speedup_percentage


class TestQuickstart:
    def test_quickstart_runs_all_three_tuners(self):
        reports = quickstart(benchmark_name="ssb", rounds=4)
        assert set(reports) == {"NoIndex", "PDTool", "MAB"}
        for report in reports.values():
            assert report.n_rounds == 4
            assert report.total_seconds > 0


class TestPaperShapeOnSmallSetups:
    """Cheap sanity checks of the qualitative results the paper reports.

    These use tiny samples and few rounds, so they assert *direction*
    (who improves over NoIndex, that the bandit learns) rather than the
    paper's exact percentages; the full comparisons live in benchmarks/.
    """

    @pytest.fixture(scope="class")
    def static_reports(self):
        settings = ExperimentSettings.quick().with_overrides(
            sample_rows=800, static_rounds=10
        )
        return run_workload_experiment("ssb", "static", ("NoIndex", "PDTool", "MAB"), settings)

    def test_both_tuners_beat_noindex_on_ssb(self, static_reports):
        noindex = static_reports["NoIndex"].total_seconds
        assert static_reports["PDTool"].total_seconds < noindex
        assert static_reports["MAB"].total_seconds < noindex

    def test_mab_converges_below_its_first_round(self, static_reports):
        rounds = static_reports["MAB"].rounds
        assert rounds[-1].execution_seconds < rounds[0].execution_seconds

    def test_mab_recommendation_time_is_negligible(self, static_reports):
        mab = static_reports["MAB"]
        assert mab.total_recommendation_seconds == 0.0

    def test_pdtool_pays_recommendation_time(self, static_reports):
        assert static_reports["PDTool"].total_recommendation_seconds > 0

    def test_total_is_sum_of_components(self, static_reports):
        for report in static_reports.values():
            assert report.total_seconds == pytest.approx(
                report.total_recommendation_seconds
                + report.total_creation_seconds
                + report.total_execution_seconds
            )

    def test_speedup_metric_consistency(self, static_reports):
        speedup = speedup_percentage(
            static_reports["NoIndex"].total_seconds, static_reports["MAB"].total_seconds
        )
        assert speedup > 0


class TestDynamicRandomSmall:
    def test_mab_handles_adhoc_workloads(self):
        settings = ExperimentSettings.quick().with_overrides(
            sample_rows=600, random_rounds=6
        )
        reports = run_workload_experiment("ssb", "random", ("NoIndex", "MAB"), settings)
        assert reports["MAB"].total_execution_seconds <= reports["NoIndex"].total_execution_seconds * 1.05
        assert reports["MAB"].n_rounds == 6
