"""Ablations of the MAB design choices called out in DESIGN.md.

These are small-scale versions of the paper's design discussion: covering
arms, the exploration boost, forgetting on workload shifts and the oracle's
negative-score pruning.  They assert robust, qualitative properties (the
variant still works, and the mechanism has the intended directional effect)
rather than exact numbers.
"""

from __future__ import annotations

import pytest

from repro.core import MabConfig, MabTuner
from repro.api import SimulationOptions, run_simulation
from repro.workloads import ShiftingWorkload, StaticWorkload, get_benchmark


@pytest.fixture(scope="module")
def ssb():
    return get_benchmark("ssb")


def fresh_database(benchmark, seed=7):
    return benchmark.create_database(scale_factor=1.0, sample_rows=800, seed=seed)


def run_static(benchmark, config: MabConfig, n_rounds: int = 8):
    database = fresh_database(benchmark)
    rounds = StaticWorkload(database, benchmark.templates[:6], n_rounds=n_rounds, seed=3).materialise()
    tuner = MabTuner(database, config)
    trace = run_simulation(database, tuner, rounds, SimulationOptions(benchmark_name="ssb"))
    return trace.report, tuner, database


class TestCoveringArms:
    def test_disabling_covering_arms_still_converges(self, ssb):
        report, _, database = run_static(ssb, MabConfig(include_covering_arms=False))
        assert report.rounds[-1].execution_seconds <= report.rounds[0].execution_seconds
        assert all(not ix.include_columns for ix in database.materialised_indexes)

    def test_covering_arms_do_not_hurt_final_execution(self, ssb):
        with_covering, _, _ = run_static(ssb, MabConfig(include_covering_arms=True))
        without_covering, _, _ = run_static(ssb, MabConfig(include_covering_arms=False))
        assert (
            with_covering.rounds[-1].execution_seconds
            <= without_covering.rounds[-1].execution_seconds * 1.15
        )


class TestExplorationBoost:
    def test_zero_alpha_pure_exploitation_still_functions(self, ssb):
        greedy, tuner, _ = run_static(ssb, MabConfig(alpha=0.0, alpha_floor=0.0))
        assert greedy.total_execution_seconds > 0
        assert tuner.known_arm_count > 0

    def test_exploration_materialises_indexes(self, ssb):
        exploring, _, database = run_static(ssb, MabConfig(alpha=2.0))
        assert exploring.total_creation_seconds > 0

    def test_alpha_floor_keeps_exploring(self, ssb):
        config = MabConfig(alpha=1.0, alpha_decay=0.5, alpha_floor=0.25)
        assert config.alpha_at(50) == pytest.approx(0.25)


class TestForgetting:
    def test_shift_threshold_bounds(self):
        assert MabConfig(shift_detection_threshold=1.0).shift_detection_threshold == 1.0
        with pytest.raises(ValueError):
            MabConfig(shift_detection_threshold=1.5)

    def test_forgetting_fires_on_real_shifts(self, ssb):
        database = fresh_database(ssb)
        rounds = ShiftingWorkload(
            database, ssb.templates, n_groups=2, rounds_per_group=3, seed=5
        ).materialise()
        tuner = MabTuner(database, MabConfig(shift_detection_threshold=0.6))
        run_simulation(database, tuner, rounds, SimulationOptions())
        assert tuner.shift_events  # the group change is detected from the queries alone


class TestCreationCostWeight:
    def test_ignoring_creation_cost_creates_at_least_as_much(self, ssb):
        charged, _, _ = run_static(ssb, MabConfig(creation_cost_weight=1.0))
        free, _, _ = run_static(ssb, MabConfig(creation_cost_weight=0.0))
        assert free.total_creation_seconds >= charged.total_creation_seconds * 0.5
