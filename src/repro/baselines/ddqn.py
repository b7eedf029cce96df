"""DDQN and DDQN-SC: the general reinforcement-learning baselines (Section V-C).

The paper compares the bandit against a double deep Q-network agent configured
as in prior work on RL-driven index selection: 4 hidden layers of 8 neurons,
discount factor 0.99, and an exploration rate decaying exponentially from 1 to
0.01 by the 2,400th sample (one sample = one index chosen).  For a fair
comparison the agent is given the same candidate indexes as the MAB and its
state combines the MAB arms' contexts.  DDQN-SC restricts candidates to
single-column indexes, as originally proposed.

Because the candidate set changes between rounds, the Q-network scores
(state, action) feature vectors — the round's aggregate context concatenated
with the candidate arm's context — which lets the same network evaluate
actions it has never seen, while remaining a faithful double Q-learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.arms import Arm, ArmGenerator
from repro.core.config import MabConfig
from repro.core.context import ContextBuilder
from repro.core.query_store import QueryStore
from repro.core.rewards import compute_round_rewards
from repro.engine.catalog import ConfigurationChange, Database
from repro.engine.execution import ExecutionResult
from repro.engine.query import Query
from repro.interface import Recommendation, Tuner

from .neural import MLP, MLPConfig
from .replay import ReplayBuffer, Transition


@dataclass
class DDQNConfig:
    """Hyper-parameters matching the paper's experimental setup."""

    hidden_layers: tuple[int, ...] = (8, 8, 8, 8)
    discount_factor: float = 0.99
    #: Exploration schedule: epsilon decays exponentially from 1.0 towards
    #: ``epsilon_end``, reaching 0.01 at sample 2400.
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_decay_samples: int = 2400
    learning_rate: float = 1e-3
    batch_size: int = 32
    train_steps_per_round: int = 8
    target_update_rounds: int = 5
    replay_capacity: int = 10_000
    #: Restrict candidates to single-column indexes (the DDQN-SC variant).
    single_column_only: bool = False
    #: Maximum number of indexes chosen per round (on top of the memory budget).
    max_actions_per_round: int = 12
    seed: int = 31

    def epsilon_at(self, samples_seen: int) -> float:
        """Exploration probability after ``samples_seen`` index choices."""
        if self.epsilon_decay_samples <= 0:
            return self.epsilon_end
        rate = math.log(self.epsilon_start / self.epsilon_end) / self.epsilon_decay_samples
        value = self.epsilon_start * math.exp(-rate * samples_seen)
        return max(self.epsilon_end, min(self.epsilon_start, value))


class DDQNTuner(Tuner):
    """Double-DQN agent for online index selection."""

    name = "DDQN"

    def __init__(self, database: Database, config: DDQNConfig | None = None) -> None:
        self.database = database
        self.config = config or DDQNConfig()
        if self.config.single_column_only:
            self.name = "DDQN_SC"
        arm_config = MabConfig()
        if self.config.single_column_only:
            arm_config = MabConfig(max_index_width=1, include_covering_arms=False)
        self.arm_generator = ArmGenerator(arm_config)
        self.context_builder = ContextBuilder(database.schema)
        self.query_store = QueryStore()
        feature_dim = 2 * self.context_builder.dimension
        network_config = MLPConfig(
            input_dim=feature_dim,
            hidden_layers=self.config.hidden_layers,
            output_dim=1,
            learning_rate=self.config.learning_rate,
            seed=self.config.seed,
        )
        self.online_network = MLP(network_config)
        self.target_network = MLP(network_config)
        self.target_network.copy_from(self.online_network)
        self.replay = ReplayBuffer(self.config.replay_capacity, seed=self.config.seed)
        self._rng = np.random.default_rng(self.config.seed)
        self.samples_seen = 0
        self._rounds_since_target_update = 0
        #: (arm, state-action features) chosen in the latest recommend call.
        self._pending_actions: list[tuple[Arm, np.ndarray]] = []
        self._pending_candidate_features: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Tuner interface
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        round_number: int,
        training_queries: list[Query] | None = None,
    ) -> Recommendation:
        del training_queries  # the RL agent, like the bandit, is online-only
        queries_of_interest = self.query_store.queries_of_interest(round_number, window_rounds=2)
        if not queries_of_interest:
            # Same contract as the MAB tuner: with no queries of interest,
            # retain the current configuration instead of dropping every
            # materialised index.
            self._pending_actions = []
            self._pending_candidate_features = None
            return Recommendation(configuration=list(self.database.materialised_indexes))

        arms = list(self.arm_generator.generate(queries_of_interest).values())
        contexts = self.context_builder.build_matrix(arms, queries_of_interest, self.database)
        state = contexts.mean(axis=0) if len(contexts) else np.zeros(self.context_builder.dimension)
        candidate_features = np.hstack([np.tile(state, (len(arms), 1)), contexts])
        self._pending_candidate_features = candidate_features

        explore = self._rng.random() < self.config.epsilon_at(self.samples_seen)
        chosen = self._choose_actions(arms, candidate_features, explore)
        self._pending_actions = chosen
        configuration = [arm.index for arm, _ in chosen]
        return Recommendation(configuration=configuration)

    def observe(
        self,
        round_number: int,
        queries: list[Query],
        results: list[ExecutionResult],
        change: ConfigurationChange,
    ) -> None:
        self.query_store.add_round(queries, round_number)
        rewards = compute_round_rewards(results, change)
        next_features = (
            self._pending_candidate_features
            if self._pending_candidate_features is not None
            else np.zeros((0, 2 * self.context_builder.dimension))
        )
        for arm, features in self._pending_actions:
            self.replay.add(Transition(
                features=features,
                reward=rewards.reward_for(arm.index_id),
                next_candidate_features=next_features,
                done=False,
            ))
        self._pending_actions = []
        self._train()
        self._rounds_since_target_update += 1
        if self._rounds_since_target_update >= self.config.target_update_rounds:
            self.target_network.copy_from(self.online_network)
            self._rounds_since_target_update = 0

    def reset(self) -> None:
        self.query_store.clear()
        self.replay.clear()
        self.samples_seen = 0
        self._rounds_since_target_update = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._pending_actions = []
        self._pending_candidate_features = None
        self.online_network = MLP(self.online_network.config)
        self.target_network = MLP(self.target_network.config)
        self.target_network.copy_from(self.online_network)

    # ------------------------------------------------------------------ #
    # action selection
    # ------------------------------------------------------------------ #
    def _choose_actions(
        self,
        arms: list[Arm],
        candidate_features: np.ndarray,
        explore: bool,
    ) -> list[tuple[Arm, np.ndarray]]:
        """Pick a set of indexes within the memory budget.

        During exploration the whole round's set is chosen at random, as in
        the paper's setup; during exploitation arms are picked greedily by
        their Q-value.
        """
        budget = self.database.memory_budget_bytes
        remaining = budget if budget is not None else None
        order: list[int]
        if explore:
            order = list(self._rng.permutation(len(arms)))
        else:
            q_values = self.online_network.predict(candidate_features).reshape(-1)
            order = list(np.argsort(-q_values))
        chosen: list[tuple[Arm, np.ndarray]] = []
        for position in order:
            if len(chosen) >= self.config.max_actions_per_round:
                break
            arm = arms[int(position)]
            if not explore:
                q_value = self.online_network.predict(
                    candidate_features[int(position)].reshape(1, -1)
                ).item()
                if q_value <= 0 and chosen:
                    break
            size = self.database.index_size_bytes(arm.index)
            if remaining is not None and size > remaining:
                continue
            chosen.append((arm, candidate_features[int(position)]))
            if remaining is not None:
                remaining -= size
            self.samples_seen += 1
        return chosen

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def _train(self) -> None:
        if len(self.replay) < self.config.batch_size:
            return
        for _ in range(self.config.train_steps_per_round):
            batch = self.replay.sample(self.config.batch_size)
            features = np.vstack([transition.features for transition in batch])
            targets = np.array([self._target_for(transition) for transition in batch])
            self.online_network.train_step(features, targets.reshape(-1, 1))

    def _target_for(self, transition: Transition) -> float:
        """Double-Q target: online net picks the next action, target net values it."""
        if transition.done or len(transition.next_candidate_features) == 0:
            return transition.reward
        online_q = self.online_network.predict(transition.next_candidate_features).reshape(-1)
        best_action = int(np.argmax(online_q))
        target_q = float(
            self.target_network.predict(
                transition.next_candidate_features[best_action].reshape(1, -1)
            ).item()
        )
        return transition.reward + self.config.discount_factor * target_q


def build_ddqn_sc(database: Database, config: DDQNConfig | None = None) -> DDQNTuner:
    """Convenience constructor for the single-column (DDQN-SC) variant."""
    base = config or DDQNConfig()
    sc_config = DDQNConfig(**{**base.__dict__, "single_column_only": True})
    return DDQNTuner(database, sc_config)
