"""Property tests for the adversarial workload stressors (``repro.workloads.stress``).

The contract under test: every registered stressor is deterministic under its
seed (same seed ⇒ bit-identical round streams, across instances *and* across
re-iterations of one instance), its events are frozen picklable specs that
actually change the database, and the per-stressor shape properties hold —
flash spikes multiply then collapse, churned templates never return (low
repeat rate), seasonal rotation keeps the hot set coming back (high repeat
rate), schema growth activates tables on schedule, tier migrations land on
their scheduled rounds.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import TuningSession, create_tuner
from repro.workloads import (
    ChurnWorkload,
    FlashTrafficWorkload,
    SchemaGrowthWorkload,
    SeasonalWorkload,
    StressWorkload,
    TableGrowthEvent,
    TierMigrationEvent,
    TierMigrationWorkload,
    UnknownStressorError,
    available_stressors,
    get_benchmark,
    get_stressor,
    round_to_round_repeat_rate,
    sequence_fingerprint,
)

STRESSOR_NAMES = ("churn", "flash_traffic", "schema_growth", "seasonal", "tier_migration")


@pytest.fixture(scope="module")
def ssb():
    benchmark = get_benchmark("ssb")
    database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
    return database, benchmark.templates[:6]


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestStressorRegistry:
    def test_all_five_stressors_registered(self):
        assert available_stressors() == sorted(STRESSOR_NAMES)

    def test_lookup_returns_stress_subclasses(self):
        for name in available_stressors():
            cls = get_stressor(name)
            assert issubclass(cls, StressWorkload)

    def test_lookup_normalises_spelling(self):
        assert get_stressor("Flash-Traffic") is FlashTrafficWorkload
        assert get_stressor(" tier migration ") is TierMigrationWorkload

    def test_unknown_name_lists_registered_stressors(self):
        with pytest.raises(UnknownStressorError) as excinfo:
            get_stressor("volcano")
        message = str(excinfo.value)
        assert "volcano" in message
        for name in STRESSOR_NAMES:
            assert name in message

    def test_error_is_both_key_and_value_error(self):
        with pytest.raises(KeyError):
            get_stressor("nope")
        with pytest.raises(ValueError):
            get_stressor("nope")


# --------------------------------------------------------------------- #
# determinism: the tentpole property
# --------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize("name", STRESSOR_NAMES)
    def test_same_seed_bit_identical_streams(self, ssb, name):
        database, templates = ssb
        cls = get_stressor(name)
        first = cls(database, templates, seed=17).materialise()
        second = cls(database, templates, seed=17).materialise()
        assert sequence_fingerprint(first) == sequence_fingerprint(second)

    @pytest.mark.parametrize("name", STRESSOR_NAMES)
    def test_rounds_reiteration_matches_materialise(self, ssb, name):
        database, templates = ssb
        sequence = get_stressor(name)(database, templates, seed=17)
        materialised = sequence.materialise()
        # Unlike the classic regimes (whose shared rng is consumed), a
        # stressor's rounds() restarts from the seed on every call.
        reiterated = list(sequence.rounds())
        assert sequence_fingerprint(reiterated) == sequence_fingerprint(materialised)

    @pytest.mark.parametrize("name", STRESSOR_NAMES)
    def test_different_seeds_diverge(self, ssb, name):
        database, templates = ssb
        cls = get_stressor(name)
        first = cls(database, templates, seed=17).materialise()
        second = cls(database, templates, seed=18).materialise()
        assert sequence_fingerprint(first) != sequence_fingerprint(second)


# --------------------------------------------------------------------- #
# repeat-rate bounds: churn low, periodic high
# --------------------------------------------------------------------- #
class TestRepeatRateBounds:
    def test_churn_repeat_rate_is_low(self, ssb):
        database, templates = ssb
        rounds = ChurnWorkload(
            database, templates, n_rounds=20, churn_rate=0.7, seed=5
        ).materialise()
        assert round_to_round_repeat_rate(rounds) < 0.35

    def test_seasonal_repeat_rate_is_high(self, ssb):
        database, templates = ssb
        rounds = SeasonalWorkload(database, templates, n_rounds=20, seed=5).materialise()
        assert round_to_round_repeat_rate(rounds) > 0.5

    def test_churn_rate_one_never_repeats(self, ssb):
        database, templates = ssb
        rounds = ChurnWorkload(
            database, templates, n_rounds=10, churn_rate=1.0, seed=5
        ).materialise()
        assert round_to_round_repeat_rate(rounds) == 0.0

    def test_churned_templates_never_return(self, ssb):
        database, templates = ssb
        rounds = ChurnWorkload(
            database, templates, n_rounds=15, churn_rate=0.6, seed=5
        ).materialise()
        seen_adhoc: set[str] = set()
        for workload_round in rounds:
            adhoc = {
                query.template_id
                for query in workload_round.queries
                if query.template_id.startswith("adhoc-")
            }
            assert not (adhoc & seen_adhoc), "an ad-hoc template was reused"
            seen_adhoc |= adhoc


# --------------------------------------------------------------------- #
# per-stressor shape properties
# --------------------------------------------------------------------- #
class TestFlashTraffic:
    def test_spike_multiplies_then_collapses(self, ssb):
        database, templates = ssb
        sequence = FlashTrafficWorkload(
            database,
            templates,
            n_rounds=12,
            spike_multiplier=10,
            spike_start=5,
            spike_length=3,
            spike_template_index=0,
            seed=5,
        )
        rounds = sequence.materialise()
        baseline = len(templates)
        hot = templates[0].template_id
        for workload_round in rounds:
            hot_count = sum(
                1 for q in workload_round.queries if q.template_id == hot
            )
            if workload_round.round_number in sequence.spike_rounds:
                assert len(workload_round.queries) == baseline + 9
                assert hot_count == 10
            else:
                assert len(workload_round.queries) == baseline
                assert hot_count == 1

    def test_spike_parameters_validated(self, ssb):
        database, templates = ssb
        with pytest.raises(ValueError):
            FlashTrafficWorkload(database, templates, spike_multiplier=1)
        with pytest.raises(ValueError):
            FlashTrafficWorkload(database, templates, spike_length=0)
        with pytest.raises(ValueError):
            FlashTrafficWorkload(database, templates, spike_template_index=99)


class TestSeasonal:
    def test_weights_are_periodic(self, ssb):
        database, templates = ssb
        sequence = SeasonalWorkload(database, templates, n_rounds=20, period=8, seed=5)
        assert sequence.weights(3) == pytest.approx(sequence.weights(11))
        assert sequence.weights(3) != pytest.approx(sequence.weights(7))

    def test_amplitude_validated(self, ssb):
        database, templates = ssb
        with pytest.raises(ValueError):
            SeasonalWorkload(database, templates, amplitude=1.0)
        with pytest.raises(ValueError):
            SeasonalWorkload(database, templates, period=1)


class TestSchemaGrowth:
    def test_tables_activate_on_schedule(self, ssb):
        database, templates = ssb
        sequence = SchemaGrowthWorkload(
            database, templates, n_rounds=16, growth_every=4, seed=5
        )
        rounds = sequence.materialise()
        schedule = sequence.growth_schedule()
        assert schedule, "SSB templates should span more tables than the core set"
        core = set(sequence.core_tables)
        for workload_round in rounds:
            tables_now = {
                table for query in workload_round.queries for table in query.tables
            }
            arrived = {
                table
                for rnd, table in schedule.items()
                if rnd <= workload_round.round_number
            }
            assert tables_now <= core | arrived
            if workload_round.round_number in schedule:
                event = workload_round.events[0]
                assert isinstance(event, TableGrowthEvent)
                assert event.table == schedule[workload_round.round_number]
                assert workload_round.is_shift_round
            if workload_round.round_number < min(schedule):
                assert not workload_round.events

    def test_growth_event_grows_rows_and_refreshes_statistics(self, ssb):
        database, _ = ssb
        benchmark = get_benchmark("ssb")
        fresh = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        table = fresh.table_names[0]
        before = fresh.table_data(table).full_row_count
        TableGrowthEvent(table, 3.0).apply(fresh)
        assert fresh.table_data(table).full_row_count == before * 3
        assert fresh.statistics.row_count(table) == before * 3


class TestTierMigration:
    def test_migrations_land_on_scheduled_rounds(self, ssb):
        database, templates = ssb
        sequence = TierMigrationWorkload(database, templates, n_rounds=12, seed=5)
        rounds = sequence.materialise()
        schedule = sequence.migration_schedule()
        assert len(schedule) == 2  # one promote, one demote by default
        for workload_round in rounds:
            expected = schedule.get(workload_round.round_number, ())
            assert workload_round.events == expected
            assert workload_round.is_shift_round == bool(expected)

    def test_default_hot_table_is_most_referenced(self, ssb):
        database, templates = ssb
        sequence = TierMigrationWorkload(database, templates, seed=5)
        counts: dict[str, int] = {}
        for template in templates:
            for table in template.tables:
                counts[table] = counts.get(table, 0) + 1
        assert counts[sequence.default_hot_table()] == max(counts.values())

    def test_out_of_range_migration_round_rejected(self, ssb):
        database, templates = ssb
        with pytest.raises(ValueError):
            TierMigrationWorkload(
                database, templates, n_rounds=5, migrations=((9, "lineorder", None),)
            )


# --------------------------------------------------------------------- #
# events: frozen, picklable, and actually applied by sessions
# --------------------------------------------------------------------- #
class TestEvents:
    @pytest.mark.parametrize(
        "event",
        [
            TierMigrationEvent("lineorder", "inmemory"),
            TierMigrationEvent("lineorder", None),
            TableGrowthEvent("lineorder", 2.5),
        ],
    )
    def test_events_are_frozen_and_picklable(self, event):
        assert pickle.loads(pickle.dumps(event)) == event
        with pytest.raises(AttributeError):
            event.table = "other"
        assert event.describe()

    def test_tier_migration_event_changes_pricing_tier(self):
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        table = database.table_names[0]
        default = database.backend_profile_for(table).name
        TierMigrationEvent(table, "inmemory").apply(database)
        assert database.backend_profile_for(table).name == "inmemory"
        TierMigrationEvent(table, None).apply(database)
        assert database.backend_profile_for(table).name == default

    def test_session_applies_events_before_recommendation(self, ssb):
        _, templates = ssb
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        session = TuningSession(database, create_tuner("NoIndex", database))
        sequence = TierMigrationWorkload(database, templates, n_rounds=6, seed=5)
        schedule = sequence.migration_schedule()
        promote_round = min(schedule)
        hot = sequence.default_hot_table()
        default_tier = database.backend_profile_for(hot).name
        for workload_round in sequence.rounds():
            session.step_workload_round(workload_round)
            if promote_round <= workload_round.round_number < max(schedule):
                assert database.backend_profile_for(hot).name == "inmemory"
        assert database.backend_profile_for(hot).name == default_tier

    def test_apply_events_mid_round_is_rejected(self, ssb):
        _, templates = ssb
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        session = TuningSession(database, create_tuner("NoIndex", database))
        session.recommend()
        with pytest.raises(RuntimeError, match="execute"):
            session.apply_events([TierMigrationEvent(database.table_names[0])])

    def test_grow_table_detaches_tenant_views(self):
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        view_a, view_b = database.tenant_view(), database.tenant_view()
        table = database.table_names[0]
        before = database.table_data(table).full_row_count
        TableGrowthEvent(table, 5.0).apply(view_a)
        assert view_a.table_data(table).full_row_count == before * 5
        # Siblings and the parent keep their original statistics snapshot.
        assert view_b.table_data(table).full_row_count == before
        assert database.table_data(table).full_row_count == before

    def test_grow_table_rejects_nonpositive_multiplier(self):
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)
        with pytest.raises(ValueError):
            database.grow_table(database.table_names[0], 0.0)


# --------------------------------------------------------------------- #
# constructor validation shared by the base class
# --------------------------------------------------------------------- #
class TestValidation:
    @pytest.mark.parametrize("name", STRESSOR_NAMES)
    def test_nonpositive_rounds_rejected(self, ssb, name):
        database, templates = ssb
        with pytest.raises(ValueError):
            get_stressor(name)(database, templates, n_rounds=0)

    def test_churn_rate_bounds(self, ssb):
        database, templates = ssb
        with pytest.raises(ValueError):
            ChurnWorkload(database, templates, churn_rate=1.5)
