"""The MAB index tuner: Algorithm 2 of the paper, wired to the C²UCB learner.

Per round the tuner:

1. pulls the queries of interest (QoI) from the query store (templates seen in
   a recent window);
2. generates candidate-index arms from the QoI predicates and builds their
   contexts;
3. scores every arm with the C²UCB upper confidence bound and lets the greedy
   oracle pick a super arm (configuration) within the memory budget;
4. after the round executes, shapes per-arm rewards from the observed
   execution statistics and the indexes' creation times, updates the shared
   linear model, and (on detected workload shifts) forgets part of what it
   has learned.

The tuner never looks at the upcoming workload and never asks the optimiser
for what-if estimates — its knowledge comes exclusively from observed
execution statistics, which is the paper's central design decision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.engine.catalog import ConfigurationChange, Database
from repro.engine.execution import ExecutionResult
from repro.engine.query import Query
from repro.interface import Recommendation, Tuner

from .arms import Arm, ArmGenerator
from .config import MabConfig
from .context import ContextBuilder
from .linear_bandit import C2UCB
from .oracle import GreedyOracle, score_order
from .query_store import QueryStore
from .rewards import compute_round_rewards


@dataclasses.dataclass
class PoolRound:
    """One in-flight recommendation round of the pool-scoring protocol.

    :meth:`MabTuner.begin_round` opens the round (QoI window, arm refresh,
    exploration boost) and returns this handle; a caller — the tuner's own
    :meth:`MabTuner.recommend` or the fleet's batched scoring pass
    (:mod:`repro.fleet`) — scores the pool however it likes and closes the
    round with :meth:`MabTuner.complete_round`.  ``arms`` is ``None`` when
    the round has no queries of interest (the empty-QoI fast path).  The
    handle carries no timing: the caller that drives the round measures it.
    """

    #: The round's queries of interest (empty on the no-QoI fast path).
    queries: list[Query]
    #: The round's arm pool, or ``None`` when there are no queries of interest.
    arms: "list[Arm] | None"
    #: Exploration boost for the round.
    alpha: float
    #: Context matrix for ``arms`` (set by :meth:`MabTuner.pool_contexts`).
    contexts: "np.ndarray | None" = None
    #: Each pool arm's size in bytes, read once per round by
    #: :meth:`MabTuner.pool_contexts` for both the contexts and the oracle.
    sizes: "list[int] | None" = None


class MabTuner(Tuner):
    """Online index selection with a contextual combinatorial bandit."""

    name = "MAB"

    def __init__(self, database: Database, config: MabConfig | None = None) -> None:
        self.database = database
        self.config = config or MabConfig()
        self.query_store = QueryStore()
        self.arm_generator = ArmGenerator(self.config)
        self.context_builder = ContextBuilder(database.schema)
        self.bandit = C2UCB(
            dimension=self.context_builder.dimension,
            regularisation=self.config.regularisation,
            seed=self.config.seed,
        )
        self.oracle = GreedyOracle()
        #: Running scale (seconds) used to normalise rewards so that the
        #: learned weights and the exploration bonus live on comparable
        #: scales; it tracks the largest observed full-scan time.
        self._reward_scale_seconds = 1.0
        #: All arms ever generated, keyed by index id (keeps usage statistics).
        self.known_arms: dict[str, Arm] = {}
        #: Selection made by the latest ``recommend`` call, consumed by
        #: ``observe``: each played arm with its context row and its size in
        #: bytes as the recommend pass read it.
        self._pending_selection: list[tuple[Arm, np.ndarray, int]] = []
        #: Diagnostics for reporting and tests.
        self.shift_events: list[int] = []
        self.rounds_recommended = 0

    # ------------------------------------------------------------------ #
    # Tuner interface
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        round_number: int,
        training_queries: list[Query] | None = None,
    ) -> Recommendation:
        """Propose the index configuration for the upcoming (unseen) round.

        Args:
            round_number: 1-based round counter (drives the QoI window and the
                exploration-boost decay).
            training_queries: Ignored — the bandit never receives a training
                workload; the argument exists only to satisfy the shared
                :class:`~repro.interface.Tuner` protocol.

        Returns:
            A :class:`~repro.interface.Recommendation` whose configuration is
            the selected super arm (or the currently materialised indexes when
            there are no queries of interest).  Its ``recommendation_seconds``
            is 0: the bandit models no recommendation cost, and the wall time
            the driving session measures is reported, not charged.
        """
        del training_queries  # the bandit never receives a training workload
        pool = self.begin_round(round_number)
        if pool.arms is None:
            return self.complete_round(pool, None)
        contexts = self.pool_contexts(pool)
        scores = self.bandit.upper_confidence_scores(contexts, pool.alpha)
        return self.complete_round(pool, scores)

    # ------------------------------------------------------------------ #
    # the pool-scoring protocol (recommend split open for the fleet)
    # ------------------------------------------------------------------ #
    def begin_round(self, round_number: int) -> PoolRound:
        """Open a recommendation round: QoI window, arm refresh, alpha.

        Everything up to (but excluding) the scoring pass of
        :meth:`recommend`.  The returned handle must be closed with
        :meth:`complete_round` exactly once; ``arms`` is ``None`` on the
        empty-QoI fast path, in which case no scoring is needed and
        ``complete_round(pool, None)`` retains the materialised
        configuration.
        """
        self.rounds_recommended += 1
        queries_of_interest = self.query_store.queries_of_interest(
            round_number, window_rounds=self.config.qoi_window_rounds
        )
        if not queries_of_interest:
            # No queries of interest — either a cold start (nothing
            # materialised yet) or recent rounds that carried no queries.
            # Retain the current configuration rather than returning [],
            # which would make ``apply_configuration`` drop every
            # materialised index for no reason.
            return PoolRound(queries=[], arms=None, alpha=0.0)
        # Merged into the persistent registry; the pool keeps generation
        # order, the *pool order* that context rows and tie-break jitter use.
        arms = self.arm_generator.generate(queries_of_interest, self.known_arms)
        return PoolRound(
            queries=queries_of_interest,
            arms=list(arms.values()),
            alpha=self.config.alpha_at(round_number),
        )

    def pool_contexts(self, pool: PoolRound) -> np.ndarray:
        """Build (and remember) the context matrix for an open round's pool."""
        assert pool.arms is not None
        pool.sizes = [self.database.index_size_bytes(arm.index) for arm in pool.arms]
        pool.contexts = self.context_builder.build_matrix(
            pool.arms, pool.queries, self.database, pool.sizes
        )
        return pool.contexts

    def complete_round(
        self, pool: PoolRound, scores: "np.ndarray | None"
    ) -> Recommendation:
        """Close an open round from raw (jitter-free) pool scores.

        ``scores`` must come from this tuner's bandit state over
        ``pool.contexts`` — either :meth:`C2UCB.upper_confidence_scores`
        directly or the fleet's batched
        :func:`~repro.core.linear_bandit.batch_upper_confidence_scores` pass,
        which is bit-identical by contract.  The tie-break jitter is drawn
        here (one draw per pool), so single-session and fleet-batched rounds
        consume the tuner's random stream identically.  ``scores=None``
        closes an empty-QoI round.

        The returned recommendation leaves ``recommendation_seconds`` at 0:
        the tuner reads no clock and models no recommendation cost.
        """
        if pool.arms is None or scores is None:
            self._pending_selection = []
            return Recommendation(configuration=list(self.database.materialised_indexes))
        assert pool.contexts is not None and pool.sizes is not None
        scores = scores + self.bandit.tie_break(len(scores))
        selection = self.oracle.select(
            score_order(scores).tolist(),
            pool.arms,
            pool.sizes,
            self.database.memory_budget_bytes,
        )
        self._pending_selection = [
            (pool.arms[position], pool.contexts[position], pool.sizes[position])
            for position in selection.selected
        ]
        return Recommendation(
            configuration=[arm.index for arm, _, _ in self._pending_selection]
        )

    def observe(
        self,
        round_number: int,
        queries: list[Query],
        results: list[ExecutionResult],
        change: ConfigurationChange,
    ) -> None:
        """Close a round: shape rewards and update the (global) bandit state.

        Args:
            round_number: The round that just executed.
            queries: The queries that ran in the round.
            results: Their observed execution statistics (same order).
            change: The configuration change applied before execution, with
                per-index creation times.

        Every played arm updates the single shared C²UCB learner, including
        its Sherman–Morrison/Woodbury ``V⁻¹`` maintenance.
        """
        summary = self.query_store.add_round(queries, round_number)
        if (
            round_number > 1
            and summary.shift_intensity >= self.config.shift_detection_threshold
        ):
            # The workload moved to (mostly) unseen templates: discount stale
            # knowledge proportionally to the shift intensity.
            self.bandit.forget(self.config.forgetting_factor)
            self.shift_events.append(round_number)

        rewards = compute_round_rewards(
            results, change, creation_cost_weight=self.config.creation_cost_weight
        )
        for index_id in rewards.used_index_ids:
            arm = self.known_arms.get(index_id)
            if arm is not None:
                arm.usage_rounds += 1
        self._update_reward_scale(results)

        if not self._pending_selection:
            return
        # Each played arm contributes a gain observation against its usage
        # context (relative size forced to zero: the gain does not depend on
        # whether the index had to be built this round).  Arms built this
        # round additionally contribute a creation-cost observation against a
        # pure-size context, so that build costs are attributed to index size
        # rather than to the workload columns the index serves.
        size_slot = self.context_builder.size_feature_index
        played_contexts: list[np.ndarray] = []
        played_rewards: list[float] = []
        for arm, context, size_bytes in self._pending_selection:
            usage_context = np.array(context, dtype=float)
            usage_context[size_slot] = 0.0
            played_contexts.append(usage_context)
            played_rewards.append(
                rewards.gains.get(arm.index_id, 0.0) / self._reward_scale_seconds
            )
            creation_seconds = change.creation_seconds_by_index.get(arm.index_id)
            if creation_seconds:
                # The size the recommend pass read: nothing changes the
                # database's sizes between recommend and observe.
                played_contexts.append(
                    self.context_builder.creation_context(arm, self.database, size_bytes)
                )
                played_rewards.append(
                    -self.config.creation_cost_weight
                    * creation_seconds
                    / self._reward_scale_seconds
                )
        self.bandit.update(
            contexts=np.vstack(played_contexts),
            rewards=np.asarray(played_rewards),
        )
        self._pending_selection = []

    def _update_reward_scale(self, results: list[ExecutionResult]) -> None:
        """Track the largest observed table full-scan time as the reward scale."""
        for result in results:
            for access in result.access_results:
                if access.full_scan_seconds > self._reward_scale_seconds:
                    self._reward_scale_seconds = access.full_scan_seconds

    def reset(self) -> None:
        """Forget all learned state; a reset tuner replays bit-identically.

        Clears the bandit (weights, scatter matrix, tie-break rng), the query
        store, the arm registry and all diagnostics.  The configuration is
        kept — it describes how to tune, not what was learned.
        """
        self.bandit.reset()
        self.query_store.clear()
        self.known_arms.clear()
        self._pending_selection = []
        self.shift_events = []
        self.rounds_recommended = 0
        self._reward_scale_seconds = 1.0

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    @property
    def known_arm_count(self) -> int:
        return len(self.known_arms)
