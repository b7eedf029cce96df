"""Tests for ``repro.fleet``: the multi-tenant tuning fleet.

The central guarantee under test is *parity*: a fleet of N tenants produces
reports and converged configurations bit-identical to N standalone
:class:`~repro.api.TuningSession` runs — for every registered tuner (MAB
tenants scored in the batched pass, the rest per session), and whatever order
observations are submitted in.  On top of that: spec interning (100 identical tenants share
one statistics snapshot), the fleet error surface, and the bitwise
equivalence contract of the vectorized scoring entry point.
"""

from __future__ import annotations

import pickle
import random
import time

import numpy as np
import pytest

from repro.api import (
    DatabaseSpec,
    DuplicateTenantError,
    FleetConfig,
    FleetSummary,
    TenantSpec,
    TuningFleet,
    TuningSession,
    UnknownTenantError,
    create_tuner,
)
from repro.core.linear_bandit import C2UCB, batch_upper_confidence_scores
from repro.workloads import StaticWorkload, get_benchmark

ALL_TUNERS = ("NoIndex", "MAB", "PDTool", "DDQN", "DDQN_SC")

#: RoundReport fields that must match bit for bit between a fleet tenant and
#: a standalone session.  Wall-clock fields are honest timings, not model
#: outputs.
DETERMINISTIC_FIELDS = (
    "round_number",
    "recommendation_seconds",
    "total_seconds",
    "creation_seconds",
    "execution_seconds",
    "n_queries",
    "indexes_created",
    "indexes_dropped",
    "configuration_size",
    "configuration_bytes",
    "is_shift_round",
)


def tiny_spec(seed: int = 4) -> DatabaseSpec:
    return DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=seed)


@pytest.fixture(scope="module")
def ssb_rounds():
    benchmark = get_benchmark("ssb")
    database = tiny_spec().create()
    return StaticWorkload(database, benchmark.templates[:4], n_rounds=4, seed=1).materialise()


def deterministic_rows(report):
    return [
        [getattr(round_report, field) for field in DETERMINISTIC_FIELDS]
        for round_report in report.rounds
    ]


def configuration_of(session: TuningSession) -> list[str]:
    return sorted(index.index_id for index in session.database.materialised_indexes)


def standalone_reference(tuner_name: str, rounds) -> TuningSession:
    """The parity oracle: one tenant's spec run in its own session."""
    database = tiny_spec().create()
    session = TuningSession(database, create_tuner(tuner_name, database))
    for workload_round in rounds:
        session.step(workload_round.queries)
    return session


# --------------------------------------------------------------------- #
# specs
# --------------------------------------------------------------------- #
class TestSpecs:
    def test_tenant_spec_and_fleet_config_pickle_and_freeze(self):
        spec = TenantSpec("t1", tiny_spec(), tuner="MAB")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        with pytest.raises(AttributeError):
            spec.tenant_id = "t2"
        config = FleetConfig(intern_databases=False)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_database_spec_is_hashable_even_with_placement_dict(self):
        a = DatabaseSpec("tpch", table_backends={"lineitem": "inmemory"})
        b = DatabaseSpec("tpch", table_backends={"lineitem": "inmemory"})
        assert a == b and hash(a) == hash(b)
        assert a.intern_key() == b.intern_key()
        assert len({a, b}) == 1

    def test_intern_key_separates_every_field(self):
        base = tiny_spec()
        for changed in (
            tiny_spec(seed=5),
            DatabaseSpec("ssb", scale_factor=0.2, sample_rows=200, seed=4),
            DatabaseSpec("ssb", scale_factor=0.1, sample_rows=300, seed=4),
            DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=4, backend="ssd"),
        ):
            assert changed.intern_key() != base.intern_key()


# --------------------------------------------------------------------- #
# interning
# --------------------------------------------------------------------- #
class TestInterning:
    def test_hundred_identical_tenants_share_one_statistics_snapshot(self):
        fleet = TuningFleet(
            TenantSpec(f"t{i:03d}", tiny_spec(), tuner="NoIndex") for i in range(100)
        )
        assert len(fleet) == 100
        assert fleet.interner.misses == 1
        assert fleet.interner.hits == 99
        assert len(fleet.interner) == 1
        statistics = {
            id(fleet.session(tid).database.statistics) for tid in fleet.tenant_ids
        }
        assert len(statistics) == 1  # one shared snapshot, not 100 rebuilds

    def test_distinct_specs_materialise_separately(self):
        fleet = TuningFleet(
            [
                TenantSpec("a", tiny_spec(seed=4), tuner="NoIndex"),
                TenantSpec("b", tiny_spec(seed=5), tuner="NoIndex"),
                TenantSpec("c", tiny_spec(seed=4), tuner="NoIndex"),
            ]
        )
        assert fleet.interner.misses == 2
        assert fleet.interner.hits == 1

    def test_interning_can_be_disabled(self):
        fleet = TuningFleet(
            [
                TenantSpec("a", tiny_spec(), tuner="NoIndex"),
                TenantSpec("b", tiny_spec(), tuner="NoIndex"),
            ],
            FleetConfig(intern_databases=False),
        )
        assert fleet.interner.misses == 0 and fleet.interner.hits == 0
        assert id(fleet.session("a").database.statistics) != id(
            fleet.session("b").database.statistics
        )

    def test_tenant_views_keep_index_catalogs_private(self, ssb_rounds):
        fleet = TuningFleet(
            [
                TenantSpec("tuned", tiny_spec(), tuner="MAB"),
                TenantSpec("untouched", tiny_spec(), tuner="NoIndex"),
            ]
        )
        for workload_round in ssb_rounds:
            fleet.step({tid: workload_round.queries for tid in fleet.tenant_ids})
        assert configuration_of(fleet.session("tuned"))
        assert configuration_of(fleet.session("untouched")) == []


# --------------------------------------------------------------------- #
# error surface
# --------------------------------------------------------------------- #
class TestErrors:
    def test_unknown_tenant_everywhere(self):
        fleet = TuningFleet([TenantSpec("known", tiny_spec(), tuner="NoIndex")])
        for call in (
            lambda: fleet.session("ghost"),
            lambda: fleet.submit("ghost", []),
            lambda: fleet.step({"ghost": []}),
        ):
            with pytest.raises(UnknownTenantError, match="ghost.*known"):
                call()

    def test_unknown_tenant_error_is_key_and_value_error(self):
        assert issubclass(UnknownTenantError, KeyError)
        assert issubclass(UnknownTenantError, ValueError)
        error = UnknownTenantError("x", ["b", "a"])
        assert str(error) == "unknown tenant 'x'; registered tenants: a, b"
        assert UnknownTenantError("x", []).args[0].endswith("none registered")

    def test_duplicate_tenant_rejected(self):
        fleet = TuningFleet([TenantSpec("dup", tiny_spec(), tuner="NoIndex")])
        with pytest.raises(DuplicateTenantError, match="dup.*already registered"):
            fleet.add_tenant(TenantSpec("dup", tiny_spec(), tuner="MAB"))
        assert issubclass(DuplicateTenantError, ValueError)
        assert len(fleet) == 1  # the existing session survived


# --------------------------------------------------------------------- #
# parity: fleet-of-N == N independent sessions, bit for bit
# --------------------------------------------------------------------- #
class TestFleetParity:
    N_TENANTS = 3

    def _submit_shuffled(self, fleet, rounds, seed: int) -> None:
        """Stream every (tenant, round) submission in a shuffled interleaving
        (per-tenant round order preserved, cross-tenant order randomised)."""
        pending = {tid: list(rounds) for tid in fleet.tenant_ids}
        rng = random.Random(seed)
        while any(pending.values()):
            tenant_id = rng.choice([t for t in fleet.tenant_ids if pending[t]])
            fleet.submit(tenant_id, pending[tenant_id].pop(0).queries)

    @pytest.mark.parametrize("tuner_name", ALL_TUNERS)
    def test_fleet_matches_independent_sessions_out_of_order(
        self, tuner_name, ssb_rounds
    ):
        reference = standalone_reference(tuner_name, ssb_rounds)
        fleet = TuningFleet(
            TenantSpec(f"t{i}", tiny_spec(), tuner=tuner_name)
            for i in range(self.N_TENANTS)
        )
        self._submit_shuffled(fleet, ssb_rounds, seed=20210409)
        drained = fleet.drain()

        assert list(drained) == fleet.tenant_ids
        for tenant_id in fleet.tenant_ids:
            session = fleet.session(tenant_id)
            assert deterministic_rows(session.report) == deterministic_rows(
                reference.report
            )
            assert configuration_of(session) == configuration_of(reference)
            assert [r.round_number for r in drained[tenant_id]] == [
                r.round_number for r in session.report.rounds
            ]

    @pytest.mark.parametrize("tuner_name", ALL_TUNERS)
    def test_submission_order_is_unobservable(self, tuner_name, ssb_rounds):
        outcomes = []
        for seed in (1, 2):
            fleet = TuningFleet(
                TenantSpec(f"t{i}", tiny_spec(), tuner=tuner_name)
                for i in range(self.N_TENANTS)
            )
            self._submit_shuffled(fleet, ssb_rounds, seed=seed)
            fleet.drain()
            outcomes.append(
                {
                    tid: (
                        deterministic_rows(fleet.session(tid).report),
                        configuration_of(fleet.session(tid)),
                    )
                    for tid in fleet.tenant_ids
                }
            )
        assert outcomes[0] == outcomes[1]

    def test_batched_scoring_matches_per_session_scoring(self, ssb_rounds):
        """The fleet-level equivalence: every MAB tenant scored in the
        vectorized pass ends bit-identical to a standalone session."""
        reference = standalone_reference("MAB", ssb_rounds)
        fleet = TuningFleet(
            TenantSpec(f"t{i}", tiny_spec(), tuner="MAB") for i in range(2)
        )
        for workload_round in ssb_rounds:
            fleet.step({tid: workload_round.queries for tid in fleet.tenant_ids})
        for tenant_id in fleet.tenant_ids:
            session = fleet.session(tenant_id)
            assert deterministic_rows(session.report) == deterministic_rows(
                reference.report
            )
            assert configuration_of(session) == configuration_of(reference)

    def test_batched_recommendation_time_is_split_across_tenants(self, ssb_rounds):
        """Wall recommend time of a batched round sums to at most the step's.

        Tenants' rounds interleave inside the batched pass, so no span of it
        is one tenant's own work: the fleet times the pass once and reports
        an even share for each tenant.  None of it is charged as C_rec.
        """
        fleet = TuningFleet(
            TenantSpec(f"t{i}", tiny_spec(), tuner="MAB") for i in range(8)
        )
        for workload_round in ssb_rounds:
            started = time.perf_counter()
            reports = fleet.step(
                {tid: workload_round.queries for tid in fleet.tenant_ids}
            )
            wall_seconds = time.perf_counter() - started
            shares = [report.wall_recommend_seconds for report in reports.values()]
            assert sum(shares) <= wall_seconds
            assert len(set(shares)) == 1
            assert shares[0] > 0
            for report in reports.values():
                assert report.recommendation_seconds == 0.0

    def test_mixed_tuner_fleet(self, ssb_rounds):
        fleet = TuningFleet(
            [
                TenantSpec("mab", tiny_spec(), tuner="MAB"),
                TenantSpec("ddqn", tiny_spec(), tuner="DDQN"),
                TenantSpec("baseline", tiny_spec(), tuner="NoIndex"),
            ]
        )
        for workload_round in ssb_rounds:
            fleet.step({tid: workload_round.queries for tid in fleet.tenant_ids})
        for tenant_id, tuner_name in (
            ("mab", "MAB"),
            ("ddqn", "DDQN"),
            ("baseline", "NoIndex"),
        ):
            reference = standalone_reference(tuner_name, ssb_rounds)
            session = fleet.session(tenant_id)
            assert deterministic_rows(session.report) == deterministic_rows(
                reference.report
            )
            assert configuration_of(session) == configuration_of(reference)


# --------------------------------------------------------------------- #
# the vectorized scoring contract (property test)
# --------------------------------------------------------------------- #
class TestBatchedScoringContract:
    def test_batch_scores_bit_identical_to_per_scorer_passes(self):
        """Property: for random learners, pools and alphas — including
        ragged pool sizes that split the stack into shape groups — the
        batched pass returns np.array_equal (bitwise) results to each
        learner scoring its own pool."""
        rng = np.random.default_rng(20210409)
        for _ in range(20):
            tenants = int(rng.integers(1, 9))
            dimension = int(rng.choice([3, 5, 8]))
            learners, blocks, alphas = [], [], []
            for _ in range(tenants):
                learner = C2UCB(dimension=dimension)
                for _ in range(int(rng.integers(1, 4))):
                    observed = int(rng.integers(1, 6))
                    learner.update(
                        rng.normal(size=(observed, dimension)), rng.normal(size=observed)
                    )
                learners.append(learner)
                pool_size = int(rng.choice([1, 4, 7]))
                blocks.append(rng.normal(size=(pool_size, dimension)))
                alphas.append(float(rng.uniform(0.0, 3.0)))
            batched = batch_upper_confidence_scores(learners, blocks, alphas)
            for learner, block, alpha, scores in zip(learners, blocks, alphas, batched):
                expected = learner.upper_confidence_scores(block, alpha)
                assert np.array_equal(scores, expected)

    def test_batch_matches_live_learner_scoring(self):
        rng = np.random.default_rng(3)
        learners = []
        for seed in (5, 6, 7):
            learner = C2UCB(dimension=4, seed=seed)
            for _ in range(3):
                contexts = rng.normal(size=(5, 4))
                learner.update(contexts, rng.uniform(size=5))
            learners.append(learner)
        blocks = [rng.normal(size=(6, 4)) for _ in learners]
        alphas = [0.5, 1.0, 2.0]
        batched = batch_upper_confidence_scores(learners, blocks, alphas)
        for learner, block, alpha, scores in zip(learners, blocks, alphas, batched):
            assert np.array_equal(scores, learner.upper_confidence_scores(block, alpha))

    def test_validation_errors(self):
        learner = C2UCB(dimension=3)
        block = np.zeros((2, 3))
        with pytest.raises(ValueError, match="must align"):
            batch_upper_confidence_scores([learner], [block, block], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            batch_upper_confidence_scores([learner], [block], [-0.1])
        with pytest.raises(ValueError, match="shape"):
            batch_upper_confidence_scores([learner], [np.zeros((2, 4))], [1.0])


# --------------------------------------------------------------------- #
# the queue API and reporting
# --------------------------------------------------------------------- #
class TestSubmitDrain:
    def test_uneven_queues_drain_completely(self, ssb_rounds):
        fleet = TuningFleet(
            [
                TenantSpec("busy", tiny_spec(), tuner="MAB"),
                TenantSpec("idle", tiny_spec(), tuner="MAB"),
            ]
        )
        for workload_round in ssb_rounds[:3]:
            fleet.submit("busy", workload_round.queries)
        fleet.submit("idle", ssb_rounds[0].queries)
        assert fleet.pending_rounds == 4
        drained = fleet.drain()
        assert fleet.pending_rounds == 0
        assert [len(drained["busy"]), len(drained["idle"])] == [3, 1]
        # the lone-tenant waves replay exactly like standalone stepping
        reference = standalone_reference("MAB", ssb_rounds[:3])
        assert deterministic_rows(fleet.session("busy").report) == deterministic_rows(
            reference.report
        )

    def test_drain_without_submissions_is_empty(self):
        fleet = TuningFleet([TenantSpec("t", tiny_spec(), tuner="NoIndex")])
        assert fleet.drain() == {}

    def test_summary_aggregates_reports(self, ssb_rounds):
        fleet = TuningFleet(
            TenantSpec(f"t{i}", tiny_spec(), tuner="MAB") for i in range(2)
        )
        for workload_round in ssb_rounds[:2]:
            fleet.step({tid: workload_round.queries for tid in fleet.tenant_ids})
        summary = fleet.summary()
        assert isinstance(summary, FleetSummary)
        assert summary.n_tenants == 2
        assert summary.n_rounds == 4
        assert summary.model_seconds == pytest.approx(
            sum(report.total_seconds for report in fleet.reports.values())
        )
        assert summary.wall_seconds > 0
        assert summary.rounds_per_second > 0
        assert FleetSummary.from_reports({}).rounds_per_second == 0.0

    def test_adopted_recommendations_respect_the_phase_machine(self, ssb_rounds):
        fleet = TuningFleet([TenantSpec("t", tiny_spec(), tuner="MAB")])
        session = fleet.session("t")
        session.recommend()
        # the session is mid-round; a fleet scoring pass must not barge in
        with pytest.raises(RuntimeError, match="expected execute"):
            fleet.step({"t": ssb_rounds[0].queries})
        session.execute(ssb_rounds[0].queries)
        session.observe()
        fleet.step({"t": ssb_rounds[1].queries})  # clean rounds still work
        assert session.report.n_rounds == 2


# --------------------------------------------------------------------- #
# mixed-stressor rosters: parity under adversarial workloads
# --------------------------------------------------------------------- #
class TestFleetUnderStress:
    """Tenants running *different* adversarial stressors concurrently must
    stay bit-for-bit with their standalone sessions — including the rounds'
    environment events (tier migrations, table growth), the offline-tool
    training workloads, and shift flags, all carried through the queue under
    shuffled submission arrival."""

    STRESS_ROSTER = (
        ("t-churn", "PDTool", "churn"),
        ("t-flash", "DDQN", "flash_traffic"),
        ("t-growth", "MAB", "schema_growth"),
        ("t-noop", "NoIndex", "tier_migration"),
        ("t-season", "DDQN_SC", "seasonal"),
        ("t-tier", "MAB", "tier_migration"),
    )
    N_STRESS_ROUNDS = 5

    @pytest.fixture(scope="class")
    def stress_rounds(self):
        from repro.workloads import get_stressor

        benchmark = get_benchmark("ssb")
        database = tiny_spec().create()
        return {
            stressor: get_stressor(stressor)(
                database,
                benchmark.templates[:4],
                n_rounds=self.N_STRESS_ROUNDS,
                seed=6,
            ).materialise()
            for _tid, _tuner, stressor in self.STRESS_ROSTER
        }

    @staticmethod
    def stress_reference(tuner_name: str, rounds) -> TuningSession:
        """The parity oracle: the tenant's stressor run in its own session."""
        database = tiny_spec().create()
        session = TuningSession(database, create_tuner(tuner_name, database))
        for workload_round in rounds:
            session.step_workload_round(workload_round)
        return session

    def _submit_shuffled_rounds(self, fleet, rounds_by_tenant, seed: int) -> None:
        pending = {tid: list(rounds) for tid, rounds in rounds_by_tenant.items()}
        rng = random.Random(seed)
        while any(pending.values()):
            tenant_id = rng.choice(sorted(t for t in pending if pending[t]))
            fleet.submit_workload_round(tenant_id, pending[tenant_id].pop(0))

    def test_mixed_stressor_roster_matches_standalone_sessions(self, stress_rounds):
        references = {
            tid: self.stress_reference(tuner, stress_rounds[stressor])
            for tid, tuner, stressor in self.STRESS_ROSTER
        }
        fleet = TuningFleet(
            TenantSpec(tid, tiny_spec(), tuner=tuner)
            for tid, tuner, _stressor in self.STRESS_ROSTER
        )
        self._submit_shuffled_rounds(
            fleet,
            {tid: stress_rounds[stressor] for tid, _tuner, stressor in self.STRESS_ROSTER},
            seed=20210409,
        )
        drained = fleet.drain()

        assert list(drained) == fleet.tenant_ids
        for tid, _tuner, _stressor in self.STRESS_ROSTER:
            session = fleet.session(tid)
            assert deterministic_rows(session.report) == deterministic_rows(
                references[tid].report
            ), f"fleet tenant {tid} diverged from its standalone session"
            assert configuration_of(session) == configuration_of(references[tid])

    def test_stress_submission_order_is_unobservable(self, stress_rounds):
        outcomes = []
        for seed in (1, 2):
            fleet = TuningFleet(
                TenantSpec(tid, tiny_spec(), tuner=tuner)
                for tid, tuner, _stressor in self.STRESS_ROSTER
            )
            self._submit_shuffled_rounds(
                fleet,
                {
                    tid: stress_rounds[stressor]
                    for tid, _tuner, stressor in self.STRESS_ROSTER
                },
                seed=seed,
            )
            fleet.drain()
            outcomes.append(
                {
                    tid: (
                        deterministic_rows(fleet.session(tid).report),
                        configuration_of(fleet.session(tid)),
                    )
                    for tid in fleet.tenant_ids
                }
            )
        assert outcomes[0] == outcomes[1]

    def test_events_for_a_tenant_missing_from_the_batch_are_rejected(
        self, stress_rounds
    ):
        """Regression: ``step`` used to drop events for a registered tenant
        left out of ``batch``, so its database never grew.  It must raise
        before any tenant runs."""
        fleet = TuningFleet(
            [
                TenantSpec("grower", tiny_spec(), tuner="NoIndex"),
                TenantSpec("bystander", tiny_spec(), tuner="NoIndex"),
            ]
        )
        workload_round = next(
            r for r in stress_rounds["schema_growth"] if r.events
        )
        grower_db = fleet.session("grower").database
        table = workload_round.events[0].table
        rows_before = grower_db.table_data(table).full_row_count

        with pytest.raises(ValueError, match="'grower'.*not in this round's batch"):
            fleet.step(
                {"bystander": workload_round.queries},
                events={"grower": workload_round.events},
            )
        assert grower_db.table_data(table).full_row_count == rows_before
        assert fleet.session("bystander").report.n_rounds == 0

    def test_interned_tenants_stay_isolated_under_growth_events(self, stress_rounds):
        """Growth events on one tenant's view must not leak into siblings
        sharing the interned statistics snapshot."""
        fleet = TuningFleet(
            [
                TenantSpec("grower", tiny_spec(), tuner="NoIndex"),
                TenantSpec("bystander", tiny_spec(), tuner="NoIndex"),
            ]
        )
        grower_db = fleet.session("grower").database
        bystander_db = fleet.session("bystander").database

        grown_tables = []
        before = {}
        for workload_round in stress_rounds["schema_growth"]:
            for event in workload_round.events:
                grown_tables.append(event.table)
                before.setdefault(event.table, grower_db.table_data(event.table).full_row_count)
            fleet.submit_workload_round("grower", workload_round)
            fleet.submit("bystander", workload_round.queries)
        fleet.drain()

        assert grown_tables, "the schema-growth sequence scheduled no events"
        for table in grown_tables:
            assert grower_db.table_data(table).full_row_count > before[table]
            assert bystander_db.table_data(table).full_row_count == before[table]
