"""Tests for the NoIndex, PDTool and DDQN baselines."""

import numpy as np
import pytest

from repro.baselines import (
    DDQNConfig,
    DDQNTuner,
    MLP,
    MLPConfig,
    NoIndexTuner,
    PDToolConfig,
    PDToolTuner,
    ReplayBuffer,
    Transition,
    build_ddqn_sc,
)
from repro.engine import ConfigurationChange, Executor, IndexDefinition
from repro.optimizer import Planner
from tests.conftest import make_join_query, make_sales_query


class TestNoIndex:
    def test_always_empty(self, tiny_database):
        tuner = NoIndexTuner()
        for round_number in (1, 2, 3):
            assert tuner.recommend(round_number).configuration == []
        tuner.observe(1, [], [], ConfigurationChange())
        tuner.reset()
        assert tuner.recommend(10).configuration == []


class TestPDTool:
    def test_no_recommendation_without_training_workload(self, tiny_database):
        tuner = PDToolTuner(tiny_database)
        recommendation = tuner.recommend(1)
        assert recommendation.configuration == []
        assert recommendation.recommendation_seconds == 0.0

    def test_invocation_selects_useful_indexes(self, tiny_database):
        tuner = PDToolTuner(tiny_database)
        training = [make_sales_query(f"s#{i}", "s") for i in range(3)]
        recommendation = tuner.recommend(2, training_queries=training)
        assert recommendation.configuration
        assert recommendation.recommendation_seconds > 0
        assert any(index.table == "sales" for index in recommendation.configuration)

    def test_configuration_persists_between_invocations(self, tiny_database):
        tuner = PDToolTuner(tiny_database)
        first = tuner.recommend(2, training_queries=[make_sales_query()])
        later = tuner.recommend(3)
        assert later.configuration == first.configuration
        assert later.recommendation_seconds == 0.0

    def test_budget_respected(self, tiny_database):
        tiny_database.memory_budget_bytes = 4 * 1024 * 1024
        tuner = PDToolTuner(tiny_database)
        recommendation = tuner.recommend(2, training_queries=[make_sales_query(), make_join_query()])
        total = sum(tiny_database.index_size_bytes(index) for index in recommendation.configuration)
        assert total <= tiny_database.memory_budget_bytes

    def test_recommendation_time_grows_with_workload_size(self, tiny_database):
        small = PDToolTuner(tiny_database).recommend(
            2, training_queries=[make_sales_query(f"a#{i}", "a") for i in range(2)]
        )
        large = PDToolTuner(tiny_database).recommend(
            2,
            training_queries=[make_sales_query(f"a#{i}", "a") for i in range(20)]
            + [make_join_query(f"b#{i}", "b") for i in range(20)],
        )
        assert large.recommendation_seconds > small.recommendation_seconds

    def test_invocation_time_limit_clips_modelled_time(self, tiny_database):
        config = PDToolConfig(invocation_time_limit_seconds=25.0)
        tuner = PDToolTuner(tiny_database, config)
        recommendation = tuner.recommend(
            2, training_queries=[make_sales_query(f"a#{i}", "a") for i in range(30)]
        )
        assert recommendation.recommendation_seconds <= 25.0

    def test_observe_is_a_noop_and_reset_clears(self, tiny_database):
        tuner = PDToolTuner(tiny_database)
        tuner.recommend(2, training_queries=[make_sales_query()])
        tuner.observe(2, [], [], ConfigurationChange())
        assert tuner.invocations
        tuner.reset()
        assert tuner.recommend(3).configuration == []
        assert tuner.invocations == []

    def test_merged_candidates_are_valid_indexes(self, tiny_database):
        tuner = PDToolTuner(tiny_database)
        indexes = [
            IndexDefinition("sales", ("day", "channel")),
            IndexDefinition("sales", ("day",), ("amount",)),
            IndexDefinition("sales", ("channel",)),
        ]
        merged = tuner._merged_candidates(indexes)
        assert merged
        for index in merged:
            assert not set(index.key_columns) & set(index.include_columns)


class TestMLP:
    def test_output_shape(self):
        network = MLP(MLPConfig(input_dim=4, hidden_layers=(8, 8), output_dim=2))
        outputs = network.predict(np.zeros((5, 4)))
        assert outputs.shape == (5, 2)

    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        network = MLP(MLPConfig(input_dim=3, hidden_layers=(16, 16), learning_rate=5e-3, seed=1))
        weights = np.array([1.0, -2.0, 0.5])
        losses = []
        for _ in range(400):
            inputs = rng.normal(size=(32, 3))
            targets = (inputs @ weights).reshape(-1, 1)
            losses.append(network.train_step(inputs, targets))
        assert losses[-1] < losses[0] * 0.1

    def test_parameter_copy(self):
        first = MLP(MLPConfig(input_dim=2, seed=1))
        second = MLP(MLPConfig(input_dim=2, seed=2))
        inputs = np.ones((1, 2))
        assert not np.allclose(first.predict(inputs), second.predict(inputs))
        second.copy_from(first)
        assert np.allclose(first.predict(inputs), second.predict(inputs))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MLPConfig(input_dim=0)
        with pytest.raises(ValueError):
            MLPConfig(input_dim=2, learning_rate=0)


class TestReplayBuffer:
    def make_transition(self, reward=1.0):
        return Transition(
            features=np.zeros(4), reward=reward, next_candidate_features=np.zeros((2, 4)), done=False
        )

    def test_capacity_enforced_fifo(self):
        buffer = ReplayBuffer(capacity=3)
        for reward in range(5):
            buffer.add(self.make_transition(float(reward)))
        assert len(buffer) == 3
        rewards = {transition.reward for transition in buffer.sample(3)}
        assert rewards <= {2.0, 3.0, 4.0}

    def test_sample_bounded_by_size(self):
        buffer = ReplayBuffer()
        buffer.add(self.make_transition())
        assert len(buffer.sample(10)) == 1
        buffer.clear()
        assert buffer.sample(10) == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)


class TestDDQN:
    def test_epsilon_schedule(self):
        config = DDQNConfig()
        assert config.epsilon_at(0) == pytest.approx(1.0)
        assert config.epsilon_at(2400) == pytest.approx(0.01, abs=1e-3)
        assert config.epsilon_at(10_000) == pytest.approx(0.01)

    def test_cold_start_empty(self, tiny_database):
        tuner = DDQNTuner(tiny_database)
        assert tuner.recommend(1).configuration == []

    def test_round_loop_learns_without_error(self, tiny_database):
        tuner = DDQNTuner(tiny_database, DDQNConfig(batch_size=4, train_steps_per_round=2))
        planner = Planner(tiny_database)
        executor = Executor(tiny_database, noise_sigma=0.0)
        queries = [make_sales_query(f"s#{i}", "s") for i in range(2)]
        for round_number in range(1, 5):
            recommendation = tuner.recommend(round_number)
            change = tiny_database.apply_configuration(recommendation.configuration)
            results = [executor.execute(planner.plan(query)) for query in queries]
            tuner.observe(round_number, queries, results, change)
        assert tuner.samples_seen > 0

    def test_empty_qoi_retains_current_configuration(self, tiny_database):
        """Like the MAB tuner, an empty-QoI round must not drop materialised indexes."""
        tuner = DDQNTuner(tiny_database)
        planner = Planner(tiny_database)
        executor = Executor(tiny_database, noise_sigma=0.0)
        queries = [make_sales_query(f"s#{i}", "s") for i in range(2)]
        for round_number in range(1, 4):
            recommendation = tuner.recommend(round_number)
            change = tiny_database.apply_configuration(recommendation.configuration)
            results = [executor.execute(planner.plan(query)) for query in queries]
            tuner.observe(round_number, queries, results, change)
        materialised = set(tiny_database.materialised_index_ids)
        assert materialised, "rounds 1-3 should have materialised at least one index"
        tuner.query_store.clear()
        recommendation = tuner.recommend(4)
        assert {index.index_id for index in recommendation.configuration} == materialised
        change = tiny_database.apply_configuration(recommendation.configuration)
        assert change.dropped == []

    def test_configuration_respects_budget(self, tiny_database):
        tiny_database.memory_budget_bytes = 4 * 1024 * 1024
        tuner = DDQNTuner(tiny_database)
        queries = [make_sales_query()]
        tuner.observe(1, queries, [], ConfigurationChange())
        recommendation = tuner.recommend(2)
        total = sum(tiny_database.index_size_bytes(index) for index in recommendation.configuration)
        assert total <= tiny_database.memory_budget_bytes

    def test_single_column_variant(self, tiny_database):
        tuner = build_ddqn_sc(tiny_database)
        assert tuner.name == "DDQN_SC"
        queries = [make_sales_query()]
        tuner.observe(1, queries, [], ConfigurationChange())
        recommendation = tuner.recommend(2)
        assert all(len(index.key_columns) == 1 for index in recommendation.configuration)
        assert all(not index.include_columns for index in recommendation.configuration)

    def test_reset(self, tiny_database):
        tuner = DDQNTuner(tiny_database)
        tuner.observe(1, [make_sales_query()], [], ConfigurationChange())
        tuner.recommend(2)
        tuner.reset()
        assert tuner.samples_seen == 0
        assert tuner.recommend(1).configuration == []
