"""Per-table placement through the public API: specs, workers, parity.

The acceptance bars of tiered storage at the API level:

* a *uniform* placement (every table explicitly on ``hdd``) is bit-identical
  to the single-profile ``hdd`` behaviour for all five tuners — per-table
  resolution must not perturb the reproduction;
* placements travel on the :class:`DatabaseSpec` and across
  ``run_competition(workers>1)`` process boundaries;
* ``set_table_backend(table, "cloud")`` then ``set_table_backend(table,
  None)`` restores a fresh database exactly — bit-identical plans and
  rewards;
* promoting a table mid-run changes the very next round's observed times
  (the migration scenario the benchmark turns into a workload shift).
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import (
    DatabaseSpec,
    SimulationOptions,
    TunerSpec,
    TuningSession,
    UnknownPlacementTableError,
    create_tuner,
    get_backend,
    run_competition,
)
from repro.workloads import StaticWorkload, get_benchmark

ALL_TUNERS = ["NoIndex", "MAB", "PDTool", "DDQN", "DDQN_SC"]

#: Every SSB table, pinned explicitly on the default tier — the "uniform
#: placement" that must be indistinguishable from no placement at all.
SSB_TABLES = ("customer", "date_dim", "lineorder", "part", "supplier")


def tiny_spec(**kwargs) -> DatabaseSpec:
    return DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=4, **kwargs)


@pytest.fixture(scope="module")
def ssb_rounds():
    benchmark = get_benchmark("ssb")
    database = tiny_spec().create()
    return StaticWorkload(database, benchmark.templates[:4], n_rounds=4, seed=1).materialise()


def run_session(ssb_rounds, tuner_name: str, spec: DatabaseSpec, options: SimulationOptions):
    database = spec.create()
    tuner = create_tuner(tuner_name, database, TunerSpec("ssb", "static"))
    session = TuningSession(database, tuner, options)
    for workload_round in ssb_rounds:
        session.step_workload_round(workload_round)
    configuration = sorted(ix.index_id for ix in database.materialised_indexes)
    return session.report, configuration


def assert_reports_identical(a, b):
    assert a.n_rounds == b.n_rounds
    for left, right in zip(a.rounds, b.rounds):
        assert left.round_number == right.round_number
        assert left.recommendation_seconds == right.recommendation_seconds
        assert left.total_seconds == right.total_seconds
        assert left.creation_seconds == right.creation_seconds
        assert left.execution_seconds == right.execution_seconds
        assert left.configuration_size == right.configuration_size
        assert left.configuration_bytes == right.configuration_bytes


# --------------------------------------------------------------------- #
# uniform placement == single-profile hdd, for every tuner
# --------------------------------------------------------------------- #
class TestUniformPlacementParity:
    @pytest.mark.parametrize("name", ALL_TUNERS)
    def test_all_tables_on_hdd_matches_single_profile(self, name, ssb_rounds):
        options = SimulationOptions(benchmark_name="ssb")
        seed_report, seed_configuration = run_session(
            ssb_rounds, name, tiny_spec(), options
        )

        uniform = {table: "hdd" for table in SSB_TABLES}
        via_mapping, mapping_configuration = run_session(
            ssb_rounds, name, tiny_spec(table_backends=uniform), options
        )
        via_both, both_configuration = run_session(
            ssb_rounds, name, tiny_spec(backend="hdd", table_backends=uniform), options
        )

        for report in (via_mapping, via_both):
            assert_reports_identical(seed_report, report)
        for configuration in (mapping_configuration, both_configuration):
            assert configuration == seed_configuration


# --------------------------------------------------------------------- #
# plumbing and serialisation
# --------------------------------------------------------------------- #
class TestPlacementPlumbing:
    def test_spec_rejects_unknown_placement_table(self):
        with pytest.raises(UnknownPlacementTableError, match="orders"):
            tiny_spec(table_backends={"orders": "ssd"}).create()

    def test_spec_with_placement_is_picklable(self):
        spec = tiny_spec(backend="ssd", table_backends={"lineorder": "inmemory"})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        database = clone.create()
        assert database.backend_profile.name == "ssd"
        assert database.backend_profile_for("lineorder").name == "inmemory"
        # a profile instance inside the mapping travels too
        spec = tiny_spec(table_backends={"lineorder": get_backend("cloud")})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.create().backend_profile_for("lineorder").name == "cloud"

    def test_placement_round_trips_through_competition_workers(self, ssb_rounds):
        """Placements must survive ``run_competition(workers>1)`` pickling.

        The spec carries a mapping with a profile instance inside; with two
        workers it travels through pickled task submissions, and the merged
        reports must be identical to a sequential run's.
        """
        spec = tiny_spec(
            table_backends={"lineorder": "inmemory", "customer": get_backend("ssd")}
        )
        options = SimulationOptions(benchmark_name="ssb")
        entries = {"NoIndex": "NoIndex", "MAB": "MAB"}
        sequential = run_competition(spec, entries, ssb_rounds, options, workers=1)
        parallel = run_competition(spec, entries, ssb_rounds, options, workers=2)
        assert list(sequential) == list(parallel) == list(entries)
        for label in entries:
            assert_reports_identical(sequential[label], parallel[label])

    def test_tiered_placement_changes_observed_times(self, ssb_rounds):
        """Hot tables in memory must make the same workload cheaper.

        (No such ordering is asserted for ``cloud``: the object store streams
        full scans *faster* than spinning disk — its penalty is random I/O
        and per-request latency, pinned in ``test_engine_backend.py`` — so a
        scan-only NoIndex workload can legitimately get cheaper there.)
        """
        options = SimulationOptions(benchmark_name="ssb")
        flat, _ = run_session(ssb_rounds, "NoIndex", tiny_spec(), options)
        tiered, _ = run_session(
            ssb_rounds, "NoIndex",
            tiny_spec(table_backends={"lineorder": "inmemory"}),
            options,
        )
        assert tiered.total_execution_seconds < flat.total_execution_seconds


# --------------------------------------------------------------------- #
# placement round trip
# --------------------------------------------------------------------- #
class TestPlacementRoundTrip:
    @pytest.mark.parametrize("name", ["MAB", "PDTool"])
    def test_cloud_then_default_equals_fresh(self, name, ssb_rounds):
        """``set_table_backend`` leaves no residue: the round trip is bit-identical.

        Pins the invalidation audit — everything the database caches (data
        size, hypothetical index sizes, statistics) is a byte quantity, and
        ``None`` removes the override — by demanding identical plans and
        rewards from a session on a round-tripped database vs a fresh one.
        """
        fresh = tiny_spec().create()
        toured = tiny_spec().create()
        toured.set_table_backend("lineorder", "cloud")
        # touch timing-dependent caches while mis-tiered
        toured.cost_model.full_scan_seconds(toured.table_data("lineorder"))
        toured.set_table_backend("lineorder", None)
        assert toured.backend_profile == fresh.backend_profile
        assert toured.table_backends == {}

        options = SimulationOptions(benchmark_name="ssb")
        reports = {}
        configurations = {}
        for label, database in (("fresh", fresh), ("toured", toured)):
            tuner = create_tuner(name, database, TunerSpec("ssb", "static"))
            session = TuningSession(database, tuner, options)
            for workload_round in ssb_rounds:
                session.step_workload_round(workload_round)
            reports[label] = session.report
            configurations[label] = sorted(
                ix.index_id for ix in database.materialised_indexes
            )
        assert_reports_identical(reports["fresh"], reports["toured"])
        assert configurations["fresh"] == configurations["toured"]


# --------------------------------------------------------------------- #
# migration mid-run
# --------------------------------------------------------------------- #
class TestMigrationMidRun:
    def test_promote_changes_the_next_rounds_observations(self, ssb_rounds):
        """The bandit sees data movement as a shift in observed times."""
        database = tiny_spec().create()
        tuner = create_tuner("NoIndex", database)
        session = TuningSession(database, tuner, SimulationOptions(benchmark_name="ssb"))
        cold = [session.step_workload_round(r).execution_seconds for r in ssb_rounds[:2]]
        database.set_table_backend("lineorder", "inmemory")
        hot = [session.step_workload_round(r).execution_seconds for r in ssb_rounds[2:]]
        # lineorder dominates every SSB query; promoting it mid-run must cut
        # the observed round times immediately and decisively
        assert max(hot) < min(cold)
        database.set_table_backend("lineorder", None)
        assert database.table_backends == {}
