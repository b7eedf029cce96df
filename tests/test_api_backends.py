"""Backend plumbing through the public API: specs, sessions, workers.

Two guarantees matter here:

* ``backend="hdd"`` on the :class:`DatabaseSpec` (by name, as a profile
  instance, or not at all) is **bit-identical** to the pre-backend
  behaviour, for every registered tuner — the multi-backend axis must not
  perturb the reproduction;
* backend profiles survive every process boundary the API exposes
  (``run_competition(workers>1)`` pickles the spec).
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import (
    BackendProfile,
    DatabaseSpec,
    SimulationOptions,
    TunerSpec,
    TuningSession,
    create_tuner,
    get_backend,
    run_competition,
)
from repro.workloads import StaticWorkload, get_benchmark

ALL_TUNERS = ["NoIndex", "MAB", "PDTool", "DDQN", "DDQN_SC"]


def tiny_spec(backend=None) -> DatabaseSpec:
    return DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=4, backend=backend)


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
# hdd is the seed behaviour, bit for bit, for every tuner
# --------------------------------------------------------------------- #
class TestHddParity:
    @pytest.mark.parametrize("name", ALL_TUNERS)
    def test_explicit_hdd_matches_default_everywhere(self, name, ssb_rounds):
        options = SimulationOptions(benchmark_name="ssb")
        seed_report, seed_configuration = run_session(
            ssb_rounds, name, tiny_spec(), options
        )

        via_name, name_configuration = run_session(
            ssb_rounds, name, tiny_spec(backend="hdd"), options
        )
        via_profile, profile_configuration = run_session(
            ssb_rounds, name, tiny_spec(backend=BackendProfile()), options
        )

        for report in (via_name, via_profile):
            assert_reports_identical(seed_report, report)
        for configuration in (name_configuration, profile_configuration):
            assert configuration == seed_configuration


# --------------------------------------------------------------------- #
# plumbing and serialisation
# --------------------------------------------------------------------- #
class TestBackendPlumbing:
    def test_spec_with_backend_is_picklable(self):
        spec = tiny_spec(backend="ssd")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.create().backend_profile.name == "ssd"
        # a raw profile instance travels just as well as a name
        spec = tiny_spec(backend=get_backend("inmemory"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.create().backend_profile.name == "inmemory"

    def test_backend_round_trips_through_competition_workers(self, ssb_rounds):
        """A spec carrying a backend must cross process boundaries.

        The spec carries a full :class:`BackendProfile` instance; with two
        workers it travels through pickled task submissions, and the merged
        reports must be identical to a sequential run's.
        """
        spec = tiny_spec(backend=get_backend("ssd"))
        options = SimulationOptions(benchmark_name="ssb")
        entries = {"NoIndex": "NoIndex", "MAB": "MAB"}
        sequential = run_competition(spec, entries, ssb_rounds, options, workers=1)
        parallel = run_competition(spec, entries, ssb_rounds, options, workers=2)
        assert list(sequential) == list(parallel) == list(entries)
        for label in entries:
            assert_reports_identical(sequential[label], parallel[label])

    def test_backends_change_observed_times(self, ssb_rounds):
        """The same workload must get cheaper down the storage tiers."""
        totals = {}
        for backend in ("hdd", "ssd", "inmemory"):
            report, _ = run_session(
                ssb_rounds, "NoIndex", tiny_spec(backend=backend),
                SimulationOptions(benchmark_name="ssb"),
            )
            totals[backend] = report.total_execution_seconds
        assert totals["hdd"] > totals["ssd"] > totals["inmemory"]
