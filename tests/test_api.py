"""Tests for the public API: tuner table, sessions, competitions and parity.

The parity test pins the central refactor guarantee of the api_redesign PR:
``run_simulation`` — now a thin loop over :class:`repro.api.TuningSession` —
reproduces the pre-refactor driver's reports exactly.  The reset tests pin
the contract that ``Tuner.reset()`` makes a rerun from round 0 bit-identical
to a fresh tuner, for every registered tuner.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    DatabaseSpec,
    Recommendation,
    SimulationOptions,
    TunerSpec,
    TuningSession,
    UnknownTunerError,
    create_tuner,
    registered_tuner_names,
    run_competition,
    run_simulation,
)
from repro.baselines.pdtool import TPCDS_RANDOM_INVOCATION_LIMIT_SECONDS
from repro.engine import get_backend
from repro.engine.errors import UnknownNameError
from repro.engine.execution import Executor
from repro.harness import ExperimentSettings, build_workload_rounds
from repro.optimizer.planner import Planner
from repro.workloads import ShiftingWorkload, StaticWorkload, get_benchmark, get_stressor


def tiny_spec(benchmark_name: str = "ssb", seed: int = 4) -> DatabaseSpec:
    return DatabaseSpec(benchmark_name, scale_factor=0.1, sample_rows=200, seed=seed)


@pytest.fixture(scope="module")
def ssb_rounds():
    benchmark = get_benchmark("ssb")
    database = tiny_spec().create()
    return StaticWorkload(database, benchmark.templates[:4], n_rounds=4, seed=1).materialise()


# --------------------------------------------------------------------- #
# tuner table
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_names_registered(self):
        # BENCH_stress.json iterates this listing, so its order is pinned.
        assert registered_tuner_names() == ["MAB", "DDQN", "DDQN_SC", "NoIndex", "PDTool"]

    def test_create_tuner_by_name_and_alias(self):
        database = tiny_spec().create()
        for name, expected in [
            ("NoIndex", "NoIndex"),
            ("mab", "MAB"),
            ("PDTool", "PDTool"),
            ("DDQN", "DDQN"),
            ("DDQN-SC", "DDQN_SC"),
            ("ddqn_sc", "DDQN_SC"),
        ]:
            assert create_tuner(name, database).name == expected

    def test_unknown_tuner_error_names_and_lists(self):
        database = tiny_spec().create()
        with pytest.raises(ValueError, match="bogus.*registered tuners.*MAB"):
            create_tuner("bogus", database)
        # the legacy contract (KeyError) still holds
        with pytest.raises(KeyError):
            create_tuner("bogus", database)
        assert issubclass(UnknownTunerError, ValueError)
        assert issubclass(UnknownTunerError, KeyError)

    def test_spec_drives_pdtool_tpcds_random_cap(self):
        """Only TPC-DS random caps an invocation, at the paper's one hour."""
        database = tiny_spec().create()
        capped = create_tuner("PDTool", database, TunerSpec("tpcds", "random"))
        assert capped.config.invocation_time_limit_seconds == 3600.0
        for spec in [
            TunerSpec("tpcds", "static"),
            TunerSpec("tpcds", "shifting"),
            TunerSpec("tpch", "random"),
            TunerSpec("tpch", "static"),
            None,
        ]:
            uncapped = create_tuner("PDTool", database, spec)
            assert uncapped.config.invocation_time_limit_seconds is None

    def test_create_tuner_applies_the_settings_spec(self, tiny_database):
        settings = ExperimentSettings()
        pdtool = create_tuner(
            "PDTool", tiny_database, settings.tuner_spec("tpcds", "random")
        )
        assert (
            pdtool.config.invocation_time_limit_seconds
            == TPCDS_RANDOM_INVOCATION_LIMIT_SECONDS
        )

    def test_database_spec_is_picklable_factory(self):
        spec = tiny_spec()
        clone = pickle.loads(pickle.dumps(spec))
        database = clone()
        assert database.schema.name == spec.create().schema.name


# --------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------- #
class TestTuningSession:
    def test_explicit_phase_cycle(self, ssb_rounds):
        database = tiny_spec().create()
        session = TuningSession(
            database, create_tuner("MAB", database), SimulationOptions(benchmark_name="ssb")
        )
        recommendation = session.recommend()
        assert isinstance(recommendation, Recommendation)
        results = session.execute(ssb_rounds[0].queries)
        assert len(results) == len(ssb_rounds[0].queries)
        round_report = session.observe()
        assert round_report.round_number == 1
        assert round_report.n_queries == len(ssb_rounds[0].queries)
        assert session.report.n_rounds == 1

    def test_step_streams_queries_without_workload_rounds(self, ssb_rounds):
        database = tiny_spec().create()
        session = TuningSession(database, create_tuner("MAB", database))
        for workload_round in ssb_rounds:
            session.step(workload_round.queries)
        assert session.report.n_rounds == len(ssb_rounds)
        assert [r.round_number for r in session.report.rounds] == [1, 2, 3, 4]
        assert session.report.rounds[-1].configuration_size >= 1

    def test_out_of_order_calls_raise(self, ssb_rounds):
        database = tiny_spec().create()
        session = TuningSession(database, create_tuner("NoIndex", database))
        with pytest.raises(RuntimeError, match="expected recommend"):
            session.execute(ssb_rounds[0].queries)
        session.recommend()
        with pytest.raises(RuntimeError, match="expected execute"):
            session.observe()
        with pytest.raises(RuntimeError, match="expected execute"):
            session.recommend()
        session.execute(ssb_rounds[0].queries)
        with pytest.raises(RuntimeError, match="expected observe"):
            session.execute(ssb_rounds[0].queries)
        session.observe()

    def test_options_callbacks_and_results(self, ssb_rounds):
        database = tiny_spec().create()
        seen = []
        options = SimulationOptions(
            benchmark_name="ssb",
            keep_results=True,
            on_round=lambda report, results: seen.append(report.round_number),
        )
        session = TuningSession(database, create_tuner("NoIndex", database), options)
        for workload_round in ssb_rounds[:2]:
            session.step_workload_round(workload_round)
        assert seen == [1, 2]
        assert len(session.results_by_round) == 2
        assert session.trace.report is session.report

    @pytest.mark.parametrize("sigma", [float("nan"), -0.5])
    def test_invalid_noise_sigma_rejected(self, sigma):
        # NaN would make every round's execution total NaN; a negative sigma
        # would silently run without noise.
        database = tiny_spec().create()
        with pytest.raises(ValueError, match="noise_sigma"):
            TuningSession(
                database, create_tuner("NoIndex", database), SimulationOptions(noise_sigma=sigma)
            )


# --------------------------------------------------------------------- #
# database recipes
# --------------------------------------------------------------------- #
class TestDatabaseSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("scale_factor", -1.0),
        ("scale_factor", 0.0),
        ("scale_factor", float("nan")),
        ("scale_factor", float("inf")),
        ("memory_budget_multiplier", -1.0),
        ("memory_budget_multiplier", float("nan")),
        ("memory_budget_multiplier", float("inf")),
    ])
    def test_invalid_size_rejected(self, field, value):
        spec = dataclasses.replace(tiny_spec(), **{field: value})
        with pytest.raises(ValueError, match=field):
            spec.create()

    def test_zero_and_absent_budget_accepted(self):
        zero = dataclasses.replace(tiny_spec(), memory_budget_multiplier=0.0).create()
        assert zero.memory_budget_bytes == 0
        unbounded = dataclasses.replace(tiny_spec(), memory_budget_multiplier=None).create()
        assert unbounded.memory_budget_bytes is None


# --------------------------------------------------------------------- #
# C_rec: charged from the tuner's own model, never from the clock
# --------------------------------------------------------------------- #
class TestRecommendationClock:
    def test_mab_is_charged_no_recommend_time(self, ssb_rounds):
        """The MAB models no recommendation cost: every round's C_rec is 0,
        and the wall time the session measured around its ``recommend``
        call is only reported, in ``wall_recommend_seconds``."""
        database = tiny_spec().create()
        trace = run_simulation(database, create_tuner("MAB", database), ssb_rounds)
        assert trace.report.n_rounds == len(ssb_rounds)
        for round_report in trace.report.rounds:
            assert round_report.recommendation_seconds == 0.0
            assert round_report.wall_recommend_seconds > 0
            assert round_report.total_seconds == (
                round_report.creation_seconds + round_report.execution_seconds
            )
        assert trace.report.rounds[-1].configuration_size >= 1

    def test_ddqn_is_charged_no_recommend_time(self, ssb_rounds):
        """DDQN's recommend builds arms, contexts and a network pass; that
        work shows in ``wall_recommend_seconds`` but never in C_rec."""
        database = tiny_spec().create()
        trace = run_simulation(database, create_tuner("DDQN", database), ssb_rounds)
        assert trace.report.n_rounds == len(ssb_rounds)
        for round_report in trace.report.rounds:
            assert round_report.recommendation_seconds == 0.0
            assert round_report.wall_recommend_seconds > 0

    def test_pdtool_keeps_its_modelled_recommendation_time(self):
        """PDTool's C_rec stays its modelled tuning time on invocation rounds
        and zero elsewhere, whatever the session's clock reads."""
        database = tiny_spec().create()
        rounds = ShiftingWorkload(
            database, get_benchmark("ssb").templates, n_groups=2, rounds_per_group=3, seed=1
        ).materialise()
        tuner = create_tuner("PDTool", database)
        trace = run_simulation(database, tuner, rounds)
        charged = [round_report.recommendation_seconds for round_report in trace.report.rounds]
        assert charged == [0.0, 104.3, 0.0, 0.0, 94.55, 0.0]
        assert [(round_number, seconds) for round_number, seconds, _ in tuner.invocations] == [
            (2, 104.3),
            (5, 94.55),
        ]


# --------------------------------------------------------------------- #
# parity with the pre-refactor batch driver
# --------------------------------------------------------------------- #
def seed_protocol_reference(database, tuner, workload_rounds, options):
    """A verbatim replica of the pre-refactor ``run_simulation`` loop.

    Kept here as the parity oracle: the session-based driver must charge the
    exact same model-costs and produce the exact same configurations.
    """
    planner = Planner(database)
    executor = Executor(database, noise_sigma=options.noise_sigma, seed=options.executor_seed)
    rows = []
    for workload_round in workload_rounds:
        training = (
            workload_round.pdtool_training_queries if workload_round.invoke_pdtool else None
        )
        recommendation = tuner.recommend(
            workload_round.round_number, training_queries=training
        )
        change = database.apply_configuration(recommendation.configuration)
        results = []
        execution_seconds = 0.0
        for query in workload_round.queries:
            plan = planner.plan(query)
            result = executor.execute(plan)
            results.append(result)
            execution_seconds += result.total_seconds
        tuner.observe(
            workload_round.round_number, workload_round.queries, results, change
        )
        rows.append(
            {
                "round": workload_round.round_number,
                "creation": change.creation_seconds + change.drop_seconds,
                "execution": execution_seconds,
                "configuration": sorted(ix.index_id for ix in database.materialised_indexes),
                "bytes": database.used_index_bytes,
            }
        )
    return rows


class TestRunSimulationParity:
    def test_mab_tpch_quick_parity_with_seed_protocol(self):
        """Acceptance: the session-based ``run_simulation`` reproduces the seed
        driver's per-round model times and configurations for MAB on TPC-H
        quick settings."""
        settings = ExperimentSettings.quick().with_overrides(
            scale_factor=1.0, sample_rows=500, static_rounds=6
        )
        benchmark = get_benchmark("tpch")
        database_spec = settings.database_spec("tpch")
        rounds = build_workload_rounds(
            benchmark, database_spec.create(), "static", settings
        )
        options = SimulationOptions(
            noise_sigma=settings.noise_sigma, benchmark_name="tpch"
        )

        # Reference: the seed protocol, inlined above.
        ref_database = database_spec.create()
        ref_rows = seed_protocol_reference(
            ref_database, create_tuner("MAB", ref_database), rounds, options
        )

        # Candidate: the session-based driver.
        database = database_spec.create()
        configurations = []
        options = dataclasses.replace(
            options,
            on_round=lambda report, results: configurations.append(
                sorted(ix.index_id for ix in database.materialised_indexes)
            ),
        )
        trace = run_simulation(database, create_tuner("MAB", database), rounds, options)

        assert trace.report.n_rounds == len(ref_rows)
        for round_report, ref, configuration in zip(
            trace.report.rounds, ref_rows, configurations
        ):
            assert round_report.round_number == ref["round"]
            assert round_report.creation_seconds == ref["creation"]
            assert round_report.execution_seconds == ref["execution"]
            assert round_report.configuration_bytes == ref["bytes"]
            assert configuration == ref["configuration"]
        # the bandit actually did something
        assert trace.report.total_creation_seconds > 0
        assert trace.report.rounds[-1].configuration_size >= 1


# --------------------------------------------------------------------- #
# competitions: parallel == sequential
# --------------------------------------------------------------------- #
class TestRunCompetition:
    ENTRIES = ("NoIndex", "MAB", "PDTool")

    def _reports(self, ssb_rounds, workers):
        spec = tiny_spec()
        return run_competition(
            spec,
            {name: name for name in self.ENTRIES},
            ssb_rounds,
            SimulationOptions(benchmark_name="ssb"),
            workers=workers,
        )

    def test_parallel_matches_sequential(self, ssb_rounds):
        sequential = self._reports(ssb_rounds, workers=1)
        parallel = self._reports(ssb_rounds, workers=3)
        assert list(sequential) == list(self.ENTRIES)
        assert list(parallel) == list(self.ENTRIES)
        for label in self.ENTRIES:
            a, b = sequential[label], parallel[label]
            assert a.tuner_name == b.tuner_name == label
            assert [r.recommendation_seconds for r in a.rounds] == [
                r.recommendation_seconds for r in b.rounds
            ]
            assert [r.total_seconds for r in a.rounds] == [
                r.total_seconds for r in b.rounds
            ]
            assert [r.creation_seconds for r in a.rounds] == [
                r.creation_seconds for r in b.rounds
            ]
            assert [r.execution_seconds for r in a.rounds] == [
                r.execution_seconds for r in b.rounds
            ]
            assert [r.configuration_bytes for r in a.rounds] == [
                r.configuration_bytes for r in b.rounds
            ]

    def test_on_round_callback_rejected_in_parallel(self, ssb_rounds):
        options = SimulationOptions(on_round=lambda report, results: None)
        with pytest.raises(ValueError, match="on_round"):
            run_competition(
                tiny_spec(), {"NoIndex": "NoIndex", "MAB": "MAB"}, ssb_rounds,
                options, workers=2,
            )

    def test_callable_entries_still_work_sequentially(self, ssb_rounds):
        from repro.baselines import NoIndexTuner

        reports = run_competition(
            tiny_spec(),
            {"custom": lambda database: NoIndexTuner()},
            ssb_rounds[:2],
            workers=1,
        )
        assert reports["custom"].tuner_name == "custom"
        assert reports["custom"].n_rounds == 2


# --------------------------------------------------------------------- #
# Tuner.reset(): rerun from round 0 is bit-identical to a fresh tuner
# --------------------------------------------------------------------- #
class TestResetBitIdentity:
    @pytest.mark.parametrize("name", ["NoIndex", "MAB", "PDTool", "DDQN", "DDQN_SC"])
    def test_reset_rerun_matches_fresh_run(self, name, ssb_rounds):
        database = tiny_spec().create()
        tuner = create_tuner(name, database, TunerSpec("ssb", "static"))
        session = TuningSession(
            database, tuner, SimulationOptions(benchmark_name="ssb")
        )
        for workload_round in ssb_rounds:
            session.step_workload_round(workload_round)
        fresh = session.report

        # Reset everything (tuner state, materialised indexes, executor noise
        # stream) and replay the identical workload.
        session.reset()
        assert database.materialised_indexes == []
        for workload_round in ssb_rounds:
            session.step_workload_round(workload_round)
        replay = session.report

        assert replay.n_rounds == fresh.n_rounds
        for a, b in zip(fresh.rounds, replay.rounds):
            assert a.round_number == b.round_number
            assert a.creation_seconds == b.creation_seconds
            assert a.execution_seconds == b.execution_seconds
            assert a.configuration_size == b.configuration_size
            assert a.configuration_bytes == b.configuration_bytes
            assert a.indexes_created == b.indexes_created
            assert a.indexes_dropped == b.indexes_dropped


# --------------------------------------------------------------------- #
# package exports
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("module_name", [
    "repro",
    "repro.api",
    "repro.engine",
    "repro.core",
    "repro.harness",
    "repro.optimizer",
    "repro.workloads",
    "repro.baselines",
    "repro.fleet",
])
def test_every_export_resolves(module_name):
    """Each ``__all__`` entry resolves; a stale name in ``repro.api``'s lazy
    fleet exports would otherwise fail only when someone first uses it."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", [
    "repro",
    "repro.api",
    "repro.harness",
    "repro.fleet",
    "repro.engine",
    "repro.core",
    "repro.workloads",
])
def test_package_imports_first_in_a_fresh_interpreter(module_name):
    """Each public package imports cleanly as the first ``repro`` import of a
    process, so an import cycle fails here rather than for a user whose
    program happens to import that package first."""
    source_root = str(Path(__file__).resolve().parent.parent / "src")
    python_path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": source_root + (os.pathsep + python_path if python_path else ""),
    }
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module_name}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


# --------------------------------------------------------------------- #
# one convention for every unknown name
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "lookup",
    [
        lambda name: create_tuner(name, None),
        get_backend,
        get_stressor,
        get_benchmark,
        lambda name: DatabaseSpec(name).create(),
    ],
    ids=["tuner", "backend", "stressor", "benchmark", "database_spec"],
)
def test_unknown_names_share_one_error_convention(lookup):
    """Every name lookup fails the same way: one ``except KeyError`` or
    ``except ValueError`` catches it, and it prints unquoted."""
    with pytest.raises(UnknownNameError) as excinfo:
        lookup("nope")
    assert isinstance(excinfo.value, KeyError)
    assert isinstance(excinfo.value, ValueError)
    assert str(excinfo.value).startswith("unknown ")
    assert "'nope'" in str(excinfo.value)
