"""Session-based tuning: drive one tuner round by round over any query stream.

:class:`TuningSession` owns the ``(Database, Tuner, Planner, Executor)``
quadruple and exposes the paper's round protocol as an explicit step cycle:

1. :meth:`TuningSession.recommend` — the tuner proposes the configuration for
   the upcoming (unseen) round;
2. :meth:`TuningSession.execute` — the database transitions to that
   configuration (creation time charged) and the caller's queries are planned
   and executed under it (execution time charged);
3. :meth:`TuningSession.observe` — the tuner receives the executed queries,
   their observed statistics and the configuration change, closing the round.

:meth:`TuningSession.step` runs one full cycle.  Because the caller supplies
the queries of each round at :meth:`execute` time, a session can serve a live
query stream — there is no requirement to pre-materialise a workload.
:func:`run_simulation` is exactly that: a thin loop stepping a session over a
list of :class:`~repro.workloads.generator.WorkloadRound` objects.

Each tuner gets its own database instance (constructed identically) so that
materialised indexes never leak between competitors, while a workload
sequence can be materialised once and shared so every tuner sees exactly the
same query instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro.engine.catalog import ConfigurationChange, Database
from repro.engine.execution import ExecutionResult, Executor
from repro.engine.query import Query
from repro.harness.metrics import RoundReport, RunReport
from repro.interface import Recommendation, Tuner
from repro.optimizer.planner import Planner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.generator import WorkloadRound

__all__ = [
    "DatabaseEvent",
    "SimulationOptions",
    "SimulationTrace",
    "TuningSession",
    "execute_round",
    "run_simulation",
]


class DatabaseEvent(Protocol):
    """A workload-visible environment change applied to a session's database.

    The stress generators (:mod:`repro.workloads.stress`) attach frozen event
    specs — tier migrations, table growth — to
    :attr:`~repro.workloads.generator.WorkloadRound.events`; anything with an
    ``apply(database)`` method satisfies the protocol.
    """

    def apply(self, database: Database) -> object: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SimulationOptions:
    """Execution-layer options for one session or simulation run.

    Attributes:
        noise_sigma: Relative noise applied to simulated execution times;
            finite and non-negative (0 disables the noise).
        executor_seed: Seed of the executor's noise stream (sessions built
            with the same options replay identically).
        benchmark_name: Label recorded in the resulting :class:`RunReport`.
        workload_type: Workload-regime label for the report (``static``,
            ``shifting`` or ``random``).
        on_round: Optional per-round callback receiving the
            :class:`RoundReport` and the round's execution results.  Not
            picklable across processes — incompatible with
            ``run_competition(workers>1)``.
        keep_results: Collect per-round execution results in the trace.

    Where tables live is part of the database recipe
    (:class:`repro.api.DatabaseSpec`), not of the session's options.
    """

    noise_sigma: float = 0.03
    executor_seed: int = 11
    benchmark_name: str = "benchmark"
    workload_type: str = "static"
    #: Optional per-round callback (round report, execution results).
    # reprolint: disable=RL002 -- in-process observer, never pickled: run_competition rejects workers>1 when on_round is set
    on_round: Callable[[RoundReport, list[ExecutionResult]], None] | None = None
    #: Collect per-round execution results in the returned trace.
    keep_results: bool = False


@dataclass
class SimulationTrace:
    """Extended simulation output: the report plus optional per-round details."""

    report: RunReport
    results_by_round: list[list[ExecutionResult]] = field(default_factory=list)


def execute_round(
    database: Database,
    planner: Planner,
    executor: Executor,
    queries: list[Query],
) -> tuple[list[ExecutionResult], float]:
    """Plan and execute one round's queries under the materialised configuration.

    Args:
        database: The database whose current configuration the plans use.
        planner: Access-path planner bound to ``database``.
        executor: Executor bound to ``database`` (owns the noise stream).
        queries: The round's queries, executed in order.

    Returns:
        ``(results, total_seconds)`` — one :class:`ExecutionResult` per query
        and the summed model execution time.
    """
    results: list[ExecutionResult] = []
    total_seconds = 0.0
    for query in queries:
        plan = planner.plan(query)
        result = executor.execute(plan)
        results.append(result)
        total_seconds += result.total_seconds
    return results, total_seconds


class TuningSession:
    """One tuner driving one database, one round at a time.

    The session enforces the ``recommend -> execute -> observe`` cycle (a
    :class:`RuntimeError` names the expected phase on misuse) and accumulates
    a :class:`RunReport` identical in shape to the batch driver's, so
    sessions, :func:`run_simulation` and competitions all feed the same
    reporting and figure code.
    """

    def __init__(
        self,
        database: Database,
        tuner: Tuner,
        options: SimulationOptions | None = None,
    ) -> None:
        """Wire one tuner to one database.

        Args:
            database: The database the session tunes (the session owns its
                configuration from here on).
            tuner: Any :class:`~repro.interface.Tuner`.
            options: Execution-layer options; defaults are the paper's.
        """
        self.database = database
        self.tuner = tuner
        self.options = options or SimulationOptions()
        self.planner = Planner(database)
        self.executor = Executor(
            database,
            noise_sigma=self.options.noise_sigma,
            seed=self.options.executor_seed,
        )
        self.report = RunReport(
            tuner_name=tuner.name,
            benchmark_name=self.options.benchmark_name,
            workload_type=self.options.workload_type,
        )
        self.results_by_round: list[list[ExecutionResult]] = []
        self.round_number = 0
        self._phase = "recommend"
        self._recommendation: Recommendation | None = None
        self._change: ConfigurationChange | None = None
        self._queries: list[Query] = []
        self._results: list[ExecutionResult] = []
        self._execution_seconds = 0.0
        self._wall_recommend = 0.0
        self._wall_apply = 0.0
        self._wall_execute = 0.0

    # ------------------------------------------------------------------ #
    # the step cycle
    # ------------------------------------------------------------------ #
    def _require_phase(self, phase: str) -> None:
        if self._phase != phase:
            raise RuntimeError(
                f"out-of-order session call: expected {self._phase}(), got {phase}()"
            )

    def recommend(
        self,
        training_queries: list[Query] | None = None,
        round_number: int | None = None,
    ) -> Recommendation:
        """Start a round: the tuner proposes the configuration to materialise.

        Args:
            training_queries: Only passed on rounds where the experiment
                protocol invokes an offline tool (PDTool); online tuners
                ignore it.
            round_number: Overrides the session's running counter (defaults
                to the next round).

        Returns:
            The tuner's :class:`~repro.interface.Recommendation`; the
            configuration is materialised by the following :meth:`execute`.
            The wall time of the tuner's ``recommend`` call is measured
            here; a recommendation whose ``recommendation_seconds`` is
            ``None`` is charged that time as the round's C_rec.

        Raises:
            RuntimeError: If the session is not in the ``recommend`` phase.
        """
        self._require_phase("recommend")
        self.round_number = (
            round_number if round_number is not None else self.round_number + 1
        )
        started = time.perf_counter()
        self._recommendation = self.tuner.recommend(
            self.round_number, training_queries=training_queries
        )
        self._wall_recommend = time.perf_counter() - started
        self._phase = "execute"
        return self._recommendation

    def adopt_recommendation(
        self,
        recommendation: Recommendation,
        round_number: int | None = None,
        wall_seconds: float = 0.0,
    ) -> Recommendation:
        """Start a round from a recommendation computed outside the session.

        The fleet's batched scoring pass drives the tuner through its pool
        protocol directly (one vectorised pass over many tenants) and then
        hands each tuner's finished :class:`~repro.interface.Recommendation`
        back to its session here, so the phase machine, round counter and
        report accounting stay exactly as if :meth:`recommend` had run.
        ``wall_seconds`` is the caller-measured wall time attributed to this
        session (the fleet divides the batched pass evenly across the
        tenants it scored); like :meth:`recommend`'s own measurement, it is
        the round's C_rec when ``recommendation.recommendation_seconds`` is
        ``None``.

        Raises:
            RuntimeError: If the session is not in the ``recommend`` phase.
        """
        self._require_phase("recommend")
        self.round_number = (
            round_number if round_number is not None else self.round_number + 1
        )
        self._recommendation = recommendation
        self._wall_recommend = wall_seconds
        self._phase = "execute"
        return self._recommendation

    def execute(self, queries: list[Query]) -> list[ExecutionResult]:
        """Materialise the pending recommendation, then run the round's queries.

        Args:
            queries: The round's workload — any query batch the caller
                produces (a live stream works; nothing is pre-materialised).

        Returns:
            One :class:`ExecutionResult` per query, in order.

        Raises:
            RuntimeError: If called before :meth:`recommend` (the session is
                not in the ``execute`` phase).
        """
        self._require_phase("execute")
        assert self._recommendation is not None
        started = time.perf_counter()
        self._change = self.database.apply_configuration(
            self._recommendation.configuration
        )
        after_apply = time.perf_counter()
        self._queries = list(queries)
        self._results, self._execution_seconds = execute_round(
            self.database, self.planner, self.executor, self._queries
        )
        self._wall_apply = after_apply - started
        self._wall_execute = time.perf_counter() - after_apply
        self._phase = "observe"
        return self._results

    def observe(self, is_shift_round: bool = False) -> RoundReport:
        """Close the round: feed observations back and account its costs.

        Args:
            is_shift_round: Marks the round as a known workload-shift
                boundary in the report (experiment bookkeeping only; tuners
                detect shifts themselves).

        Returns:
            The completed round's :class:`RoundReport`, also appended to
            :attr:`report`.

        Raises:
            RuntimeError: If called before :meth:`execute` (the session is
                not in the ``observe`` phase).
        """
        self._require_phase("observe")
        assert self._recommendation is not None and self._change is not None
        started = time.perf_counter()
        self.tuner.observe(self.round_number, self._queries, self._results, self._change)
        wall_observe = time.perf_counter() - started

        charged = self._recommendation.recommendation_seconds
        round_report = RoundReport(
            round_number=self.round_number,
            recommendation_seconds=self._wall_recommend if charged is None else charged,
            creation_seconds=self._change.creation_seconds + self._change.drop_seconds,
            execution_seconds=self._execution_seconds,
            n_queries=len(self._queries),
            indexes_created=len(self._change.created),
            indexes_dropped=len(self._change.dropped),
            configuration_size=len(self.database.materialised_indexes),
            configuration_bytes=self.database.used_index_bytes,
            is_shift_round=is_shift_round,
            wall_recommend_seconds=self._wall_recommend,
            wall_apply_seconds=self._wall_apply,
            wall_execute_seconds=self._wall_execute,
            wall_observe_seconds=wall_observe,
        )
        self.report.rounds.append(round_report)
        if self.options.keep_results:
            self.results_by_round.append(self._results)
        if self.options.on_round is not None:
            self.options.on_round(round_report, self._results)

        self._recommendation = None
        self._change = None
        self._queries = []
        self._results = []
        self._phase = "recommend"
        return round_report

    def step(
        self,
        queries: list[Query],
        training_queries: list[Query] | None = None,
        is_shift_round: bool = False,
        round_number: int | None = None,
    ) -> RoundReport:
        """One full ``recommend -> execute -> observe`` cycle.

        Args:
            queries: The round's workload (see :meth:`execute`).
            training_queries: Offline-tool training workload, when the
                protocol provides one (see :meth:`recommend`).
            is_shift_round: Report bookkeeping (see :meth:`observe`).
            round_number: Overrides the running round counter.

        Returns:
            The completed round's :class:`RoundReport`.
        """
        self.recommend(training_queries, round_number=round_number)
        self.execute(queries)
        return self.observe(is_shift_round=is_shift_round)

    # ------------------------------------------------------------------ #
    # lifecycle and results
    # ------------------------------------------------------------------ #
    def apply_events(self, events: Iterable[DatabaseEvent]) -> None:
        """Apply workload-visible environment events to this session's database.

        Stress sequences (:mod:`repro.workloads.stress`) schedule tier
        migrations and table growth on their rounds; the driver applies them
        *before* the round's recommendation so the tuner faces the changed
        world immediately.  Only legal between rounds.

        Raises:
            RuntimeError: If called mid-round (the session must be in the
                ``recommend`` phase).
        """
        self._require_phase("recommend")
        for event in events:
            event.apply(self.database)

    def step_workload_round(self, workload_round: "WorkloadRound") -> RoundReport:
        """Step over one pre-materialised workload round (the batch protocol).

        The round's :attr:`~repro.workloads.generator.WorkloadRound.events`
        are applied to the session's database first — see
        :meth:`apply_events`.
        """
        self.apply_events(workload_round.events)
        return self.step(
            workload_round.queries,
            training_queries=workload_round.pdtool_training_queries,
            is_shift_round=workload_round.is_shift_round,
            round_number=workload_round.round_number,
        )

    @property
    def trace(self) -> SimulationTrace:
        return SimulationTrace(report=self.report, results_by_round=self.results_by_round)

    def reset(self) -> None:
        """Forget everything: tuner state, materialised indexes and the report.

        After ``reset()`` the session replays from round 0 exactly as a fresh
        session over a fresh tuner would (the executor's noise stream restarts
        too).
        """
        self.tuner.reset()
        self.database.apply_configuration([])
        self.executor = Executor(
            self.database,
            noise_sigma=self.options.noise_sigma,
            seed=self.options.executor_seed,
        )
        self.report = RunReport(
            tuner_name=self.tuner.name,
            benchmark_name=self.options.benchmark_name,
            workload_type=self.options.workload_type,
        )
        self.results_by_round = []
        self.round_number = 0
        self._phase = "recommend"
        self._recommendation = None
        self._change = None
        self._queries = []
        self._results = []


def run_simulation(
    database: Database,
    tuner: Tuner,
    workload_rounds: "list[WorkloadRound]",
    options: SimulationOptions | None = None,
) -> SimulationTrace:
    """Run one tuner over a materialised workload sequence.

    A thin loop over :class:`TuningSession` — kept as the batch entry point
    for pre-materialised workloads and pinned by a parity test to reproduce
    the original driver's reports exactly.

    Args:
        database: The database to tune (typically built by a
            :class:`~repro.api.DatabaseSpec`).
        tuner: Any :class:`~repro.interface.Tuner` (see
            :func:`repro.api.create_tuner`).
        workload_rounds: Pre-materialised rounds (see
            :func:`repro.harness.build_workload_rounds` or the workload
            generators in :mod:`repro.workloads`).
        options: Execution-layer options (noise, seeds, labels).

    Returns:
        A :class:`SimulationTrace` with the run's :class:`RunReport` (and
        per-round results when ``options.keep_results`` is set).
    """
    session = TuningSession(database, tuner, options)
    for workload_round in workload_rounds:
        session.step_workload_round(workload_round)
    return session.trace
