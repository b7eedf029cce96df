"""Tests for the harness: metrics, reporting, simulation driver and experiments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import SimulationOptions, create_tuner, run_simulation
from repro.baselines import NoIndexTuner
from repro.core import MabTuner
from repro.harness import (
    ExperimentSettings,
    MissingBaselineError,
    RoundReport,
    RunReport,
    SafetyReport,
    rank_by_safety,
    safety_reports,
    aggregate_rl_series,
    build_workload_rounds,
    convergence_series,
    exploration_cost_summary,
    format_table,
    run_workload_experiment,
    speedup_percentage,
    speedup_summary,
    table1_breakdown,
    table2_database_size,
    totals_summary,
)
from repro.workloads import StaticWorkload, get_benchmark


def make_report(name="MAB", totals=(10.0, 20.0)) -> RunReport:
    report = RunReport(tuner_name=name, benchmark_name="tiny", workload_type="static")
    for round_number, total in enumerate(totals, start=1):
        report.rounds.append(RoundReport(
            round_number=round_number,
            recommendation_seconds=1.0,
            creation_seconds=2.0,
            execution_seconds=total - 3.0,
            n_queries=5,
        ))
    return report


class TestMetrics:
    def test_round_total(self):
        round_report = RoundReport(1, recommendation_seconds=1, creation_seconds=2, execution_seconds=3)
        assert round_report.total_seconds == 6

    def test_run_aggregates(self):
        report = make_report(totals=(10.0, 20.0))
        assert report.total_seconds == pytest.approx(30.0)
        assert report.total_recommendation_seconds == pytest.approx(2.0)
        assert report.total_creation_seconds == pytest.approx(4.0)
        assert report.exploration_cost_seconds == pytest.approx(6.0)
        assert report.per_round_totals() == [pytest.approx(10.0), pytest.approx(20.0)]
        assert report.per_round_execution()[-1] == pytest.approx(17.0)
        assert report.breakdown_minutes()["total"] == pytest.approx(0.5)
        assert report.summary()["rounds"] == 2

    def test_speedup_percentage(self):
        assert speedup_percentage(100, 75) == pytest.approx(25.0)
        assert speedup_percentage(100, 125) == pytest.approx(-25.0)
        assert speedup_percentage(0, 10) == 0.0


class TestSafetyMetrics:
    @staticmethod
    def report_with(name, totals, drops=()):
        report = RunReport(tuner_name=name, benchmark_name="tiny", workload_type="stress")
        drops = tuple(drops) or (0,) * len(totals)
        for round_number, (total, dropped) in enumerate(zip(totals, drops), start=1):
            report.rounds.append(RoundReport(
                round_number=round_number,
                execution_seconds=total,
                indexes_dropped=dropped,
            ))
        return report

    def test_from_reports_metrics(self):
        baseline = self.report_with("NoIndex", (10.0, 10.0, 10.0, 10.0))
        # round speedups: 2.0x (win), 0.5x (regression), 1.0x, 1.25x (win)
        candidate = self.report_with("MAB", (5.0, 20.0, 10.0, 8.0), drops=(0, 2, 0, 0))
        safety = SafetyReport.from_reports(candidate, baseline)
        assert safety.tuner_name == "MAB" and safety.baseline_name == "NoIndex"
        assert safety.per_round_regret == pytest.approx([-5.0, 10.0, 0.0, -2.0])
        assert safety.total_regret_seconds == pytest.approx(3.0)
        assert safety.worst_round_regression_ratio == pytest.approx(0.5)
        assert safety.regression_rounds == [2]
        assert safety.regression_count == 1
        assert safety.win_count == 2
        assert safety.rollback_count == 1
        summary = safety.summary()
        assert summary["regression_rounds"] == 1 and summary["win_rounds"] == 2

    def test_zero_round_runs(self):
        safety = SafetyReport.from_reports(
            self.report_with("MAB", ()), self.report_with("NoIndex", ())
        )
        assert safety.n_rounds == 0
        assert safety.total_regret_seconds == 0.0
        assert safety.worst_round_regression_ratio == 1.0
        assert safety.regression_rounds == []
        assert safety.win_count == 0 and safety.rollback_count == 0

    def test_never_regressing_tuner_has_empty_regression_list(self):
        baseline = self.report_with("NoIndex", (10.0, 10.0, 10.0))
        candidate = self.report_with("MAB", (8.0, 5.0, 10.0))
        safety = SafetyReport.from_reports(candidate, baseline)
        assert safety.regression_rounds == []
        assert safety.worst_round_regression_ratio >= 1.0

    def test_zero_cost_candidate_round_is_degenerate_win(self):
        baseline = self.report_with("NoIndex", (10.0, 0.0))
        candidate = self.report_with("MAB", (0.0, 0.0))
        safety = SafetyReport.from_reports(candidate, baseline)
        assert safety.per_round_speedup[0] == float("inf")
        assert safety.per_round_speedup[1] == 1.0
        assert safety.regression_rounds == []

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="different lengths"):
            SafetyReport.from_reports(
                self.report_with("MAB", (1.0,)), self.report_with("NoIndex", (1.0, 2.0))
            )

    def test_missing_baseline_raises_listed_names_error(self):
        runs = {
            "MAB": self.report_with("MAB", (1.0,)),
            "DDQN": self.report_with("DDQN", (2.0,)),
        }
        with pytest.raises(MissingBaselineError) as excinfo:
            safety_reports(runs)
        message = str(excinfo.value)
        assert "NoIndex" in message and "DDQN" in message and "MAB" in message
        # Rendered plainly, not in KeyError's quotes.
        assert message == excinfo.value.args[0]
        assert not message.startswith(("'", '"'))
        # Registry style: catchable as KeyError or ValueError alike.
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ValueError)

    def test_safety_reports_pairs_every_non_baseline_run(self):
        runs = {
            "NoIndex": self.report_with("NoIndex", (10.0, 10.0)),
            "MAB": self.report_with("MAB", (8.0, 9.0)),
            "DDQN": self.report_with("DDQN", (30.0, 40.0)),
        }
        safety = safety_reports(runs)
        assert sorted(safety) == ["DDQN", "MAB"]
        assert all(s.baseline_name == "NoIndex" for s in safety.values())

    def test_rank_by_safety_orders_worst_round_first(self):
        baseline = self.report_with("NoIndex", (10.0, 10.0, 10.0))
        runs = {
            "NoIndex": baseline,
            # one catastrophic round (0.1x) but only one regression
            "Spiky": self.report_with("Spiky", (100.0, 8.0, 8.0)),
            # two mild regressions (0.9x) and no catastrophe
            "Steady": self.report_with("Steady", (11.0, 11.0, 8.0)),
        }
        ranking = rank_by_safety(safety_reports(runs))
        assert ranking == ["Steady", "Spiky"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[2] or "333" in lines[3]

    def test_convergence_and_totals(self):
        reports = {"MAB": make_report("MAB"), "PDTool": make_report("PDTool", totals=(12.0, 24.0))}
        series = convergence_series(reports)
        assert "round" in series and "MAB" in series and "PDTool" in series
        totals = totals_summary(reports)
        assert "tuner" in totals
        assert "MAB" in totals

    def test_speedup_summary(self):
        reports = {"MAB": make_report("MAB", (10.0, 10.0)), "PDTool": make_report("PDTool", (20.0, 20.0))}
        text = speedup_summary(reports)
        assert "50.0%" in text
        assert "unavailable" in speedup_summary({"MAB": reports["MAB"]})

    def test_table_formatters(self):
        reports = {"PDTool": make_report("PDTool"), "MAB": make_report("MAB")}
        table1 = table1_breakdown({"static": {"tiny": reports}})
        assert "static" in table1 and "tiny" in table1
        table2 = table2_database_size({1.0: reports, 10.0: reports})
        assert "scale_factor" in table2
        assert "exploration_cost_s" in exploration_cost_summary(reports)


class TestSimulation:
    @pytest.fixture()
    def ssb_setup(self, ssb_benchmark):
        database = ssb_benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        rounds = StaticWorkload(database, ssb_benchmark.templates[:4], n_rounds=3, seed=1).materialise()
        return database, rounds

    def test_noindex_run_accounting(self, ssb_setup):
        database, rounds = ssb_setup
        trace = run_simulation(database, NoIndexTuner(), rounds, SimulationOptions(benchmark_name="ssb"))
        report = trace.report
        assert report.n_rounds == 3
        assert report.total_creation_seconds == 0.0
        assert report.total_recommendation_seconds == 0.0
        assert report.total_execution_seconds > 0
        for round_report in report.rounds:
            assert round_report.configuration_size == 0
            assert round_report.n_queries == 4

    def test_mab_run_creates_indexes_and_keeps_results(self, ssb_setup):
        database, rounds = ssb_setup
        options = SimulationOptions(benchmark_name="ssb", keep_results=True)
        trace = run_simulation(database, MabTuner(database), rounds, options)
        assert trace.report.total_creation_seconds > 0
        assert len(trace.results_by_round) == 3
        assert trace.report.rounds[-1].configuration_size >= 1

    def test_round_totals_are_component_sums(self, ssb_setup):
        database, rounds = ssb_setup
        trace = run_simulation(database, MabTuner(database), rounds)
        for round_report in trace.report.rounds:
            assert round_report.total_seconds == pytest.approx(
                round_report.recommendation_seconds
                + round_report.creation_seconds
                + round_report.execution_seconds
            )

    def test_wall_clock_phase_instrumentation(self, ssb_setup):
        database, rounds = ssb_setup
        trace = run_simulation(database, MabTuner(database), rounds)
        for round_report in trace.report.rounds:
            assert round_report.wall_recommend_seconds >= 0.0
            assert round_report.wall_execute_seconds > 0.0
        totals = trace.report.wall_phase_totals()
        assert set(totals) == {"recommend", "apply", "execute", "observe", "total"}
        assert totals["total"] == pytest.approx(
            sum(
                r.wall_recommend_seconds
                + r.wall_apply_seconds
                + r.wall_execute_seconds
                + r.wall_observe_seconds
                for r in trace.report.rounds
            )
        )
        assert totals["total"] > 0.0

    def test_on_round_callback_invoked(self, ssb_setup):
        database, rounds = ssb_setup
        seen = []
        options = SimulationOptions(on_round=lambda report, results: seen.append(report.round_number))
        run_simulation(database, NoIndexTuner(), rounds, options)
        assert seen == [1, 2, 3]


class TestExperiments:
    def test_create_tuner_names(self, tiny_database):
        for name, expected in [
            ("NoIndex", "NoIndex"),
            ("MAB", "MAB"),
            ("PDTool", "PDTool"),
            ("DDQN", "DDQN"),
            ("DDQN_SC", "DDQN_SC"),
        ]:
            assert create_tuner(name, tiny_database).name == expected
        with pytest.raises(KeyError, match="registered tuners"):
            create_tuner("unknown", tiny_database)
        with pytest.raises(ValueError, match="registered tuners"):
            create_tuner("unknown", tiny_database)

    def test_settings_quick_and_overrides(self):
        settings = ExperimentSettings.quick()
        assert settings.static_rounds < ExperimentSettings().static_rounds
        assert settings.with_overrides(static_rounds=3).static_rounds == 3

    def test_unknown_bench_profile_fails_collection(self):
        # A misspelt profile must not quietly produce quick-scale "paper" numbers.
        repo_root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "REPRO_BENCH_PROFILE": "papr", "PYTHONPATH": str(repo_root / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "benchmarks"],
            cwd=repo_root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "'quick' or 'paper'" in result.stdout + result.stderr

    def test_build_workload_rounds_types(self):
        benchmark = get_benchmark("ssb")
        settings = ExperimentSettings.quick().with_overrides(sample_rows=200, scale_factor=0.1)
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200)
        static = build_workload_rounds(benchmark, database, "static", settings)
        assert len(static) == settings.static_rounds
        shifting = build_workload_rounds(benchmark, database, "shifting", settings)
        assert len(shifting) == settings.shifting_groups * settings.shifting_rounds_per_group
        random_rounds = build_workload_rounds(benchmark, database, "random", settings)
        assert len(random_rounds) == settings.random_rounds
        with pytest.raises(KeyError):
            build_workload_rounds(benchmark, database, "bogus", settings)

    def test_small_end_to_end_experiment(self):
        settings = ExperimentSettings.quick().with_overrides(
            scale_factor=1.0, sample_rows=300, static_rounds=4
        )
        reports = run_workload_experiment("ssb", "static", ("NoIndex", "MAB"), settings)
        assert set(reports) == {"NoIndex", "MAB"}
        assert reports["NoIndex"].n_rounds == 4
        # the bandit must never be slower than NoIndex by execution alone in
        # the final round once it has had a few rounds to learn
        assert reports["MAB"].rounds[-1].execution_seconds <= reports["NoIndex"].rounds[-1].execution_seconds * 1.1

    def test_aggregate_rl_series(self):
        reports = [make_report(totals=(10.0, 20.0)), make_report(totals=(20.0, 30.0))]
        series = aggregate_rl_series(reports)
        assert series["mean"] == [pytest.approx(15.0), pytest.approx(25.0)]
        assert len(series["median"]) == 2
        assert aggregate_rl_series([])["mean"] == []
