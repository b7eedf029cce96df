"""Tests for the MAB tuner (configuration + round loop behaviour)."""

import math

import pytest

from repro.core import MabConfig, MabTuner
from repro.engine import Executor, IndexDefinition
from repro.optimizer import Planner
from tests.conftest import make_join_query, make_sales_query


class TestMabConfig:
    def test_defaults_valid(self):
        config = MabConfig()
        assert config.alpha > 0
        assert config.max_index_width >= 1

    @pytest.mark.parametrize("field,value", [
        ("regularisation", 0.0),
        ("alpha", -1.0),
        ("alpha_decay", 0.0),
        ("max_index_width", 0),
        ("qoi_window_rounds", 0),
        ("forgetting_factor", 2.0),
        ("shift_detection_threshold", -0.1),
        ("max_arms_per_query_table", 0),
        ("alpha_floor", -0.1),
        ("alpha_floor", math.inf),
        ("creation_cost_weight", -1.0),
        ("creation_cost_weight", math.inf),
        ("regularisation", math.nan),
        ("alpha", math.nan),
        ("alpha_decay", math.nan),
        ("alpha_floor", math.nan),
        ("shift_detection_threshold", math.nan),
        ("forgetting_factor", math.nan),
        ("creation_cost_weight", math.nan),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MabConfig(**{field: value})

    def test_zero_exploration_and_free_creation_stay_valid(self):
        config = MabConfig(alpha=0.0, alpha_floor=0.0, creation_cost_weight=0.0)
        assert config.alpha_at(5) == 0.0

    def test_alpha_decays_to_floor(self):
        config = MabConfig(alpha=1.0, alpha_decay=0.5, alpha_floor=0.2)
        assert config.alpha_at(1) == pytest.approx(1.0)
        assert config.alpha_at(2) == pytest.approx(0.5)
        assert config.alpha_at(100) == pytest.approx(0.2)


def run_round(tuner, database, queries, round_number):
    """Drive one recommend/apply/execute/observe cycle."""
    planner = Planner(database)
    executor = Executor(database, noise_sigma=0.0)
    recommendation = tuner.recommend(round_number)
    change = database.apply_configuration(recommendation.configuration)
    results = [executor.execute(planner.plan(query)) for query in queries]
    tuner.observe(round_number, queries, results, change)
    return recommendation, change, results


class TestMabTuner:
    def test_cold_start_recommends_empty_configuration(self, tiny_database):
        tuner = MabTuner(tiny_database)
        recommendation = tuner.recommend(1)
        assert recommendation.configuration == []
        assert recommendation.recommendation_seconds == 0.0

    def test_recommends_indexes_after_observing_workload(self, tiny_database):
        tuner = MabTuner(tiny_database)
        queries = [make_sales_query(f"s#{i}", "s") for i in range(2)]
        run_round(tuner, tiny_database, queries, 1)
        recommendation = tuner.recommend(2)
        assert recommendation.configuration
        assert all(isinstance(index, IndexDefinition) for index in recommendation.configuration)
        assert tuner.known_arm_count > 0

    def test_configuration_respects_memory_budget(self, tiny_database):
        tiny_database.memory_budget_bytes = 5 * 1024 * 1024
        tuner = MabTuner(tiny_database)
        queries = [make_sales_query(), make_join_query()]
        run_round(tuner, tiny_database, queries, 1)
        recommendation = tuner.recommend(2)
        total = sum(tiny_database.index_size_bytes(index) for index in recommendation.configuration)
        assert total <= tiny_database.memory_budget_bytes

    def test_learning_improves_execution_over_rounds(self, tiny_database):
        tuner = MabTuner(tiny_database, MabConfig(seed=1))
        planner = Planner(tiny_database)
        executor = Executor(tiny_database, noise_sigma=0.0)
        queries = [make_sales_query(f"s#{i}", "s") for i in range(3)]
        baseline = sum(executor.execute(planner.plan(query)).total_seconds for query in queries)
        final_execution = baseline
        for round_number in range(1, 8):
            _, _, results = run_round(tuner, tiny_database, queries, round_number)
            final_execution = sum(result.total_seconds for result in results)
        assert final_execution < baseline

    def test_shift_detection_triggers_forgetting(self, tiny_database):
        tuner = MabTuner(tiny_database, MabConfig(shift_detection_threshold=0.5))
        first = [make_sales_query("a#1", "a")]
        second = [make_join_query("b#1", "b")]
        run_round(tuner, tiny_database, first, 1)
        run_round(tuner, tiny_database, second, 2)
        assert tuner.shift_events == [2]

    def test_training_queries_are_ignored(self, tiny_database):
        tuner = MabTuner(tiny_database)
        recommendation = tuner.recommend(1, training_queries=[make_sales_query()])
        assert recommendation.configuration == []

    def test_reset_clears_state(self, tiny_database):
        tuner = MabTuner(tiny_database)
        run_round(tuner, tiny_database, [make_sales_query()], 1)
        run_round(tuner, tiny_database, [make_sales_query()], 2)
        tuner.reset()
        tiny_database.apply_configuration([])
        assert tuner.known_arm_count == 0
        assert tuner.rounds_recommended == 0
        assert tuner.recommend(1).configuration == []

    def test_empty_qoi_retains_current_configuration(self, tiny_database):
        """An emptied query store must not drop materialised indexes."""
        tuner = MabTuner(tiny_database)
        run_round(tuner, tiny_database, [make_sales_query("s#1", "s")], 1)
        run_round(tuner, tiny_database, [make_sales_query("s#2", "s")], 2)
        materialised = set(tiny_database.materialised_index_ids)
        assert materialised, "rounds 1-2 should have built at least one index"
        # With every template forgotten the next recommendation has no
        # queries of interest.
        tuner.query_store.clear()
        recommendation = tuner.recommend(3)
        assert {index.index_id for index in recommendation.configuration} == materialised
        change = tiny_database.apply_configuration(recommendation.configuration)
        assert change.dropped == [] and change.created == []
