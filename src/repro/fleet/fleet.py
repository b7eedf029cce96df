"""The multi-tenant tuning fleet: thousands of bandit sessions per process.

:class:`TuningFleet` owns one :class:`~repro.api.TuningSession` per tenant and
multiplexes their round protocol the way a DBaaS control plane would:

* **shared immutable state** — tenants whose database specs intern to the
  same key share one statistics snapshot
  (:class:`~repro.fleet.DatabaseInterner`), so fleet startup is O(distinct
  specs), not O(tenants);
* **batched recommendation** — every MAB tenant's scoring round runs inside
  one vectorized
  :func:`~repro.core.linear_bandit.batch_upper_confidence_scores` pass,
  bit-identical to per-session scoring by contract (DDQN/PDTool/NoIndex
  tenants fall back to ordinary per-session recommendation); the pass is
  timed once and each tenant is charged an even share as its C_rec;
* **queue-driven stepping** — :meth:`TuningFleet.submit` enqueues a tenant's
  next round in any arrival order, :meth:`TuningFleet.drain` processes every
  queued round and merges results keyed by tenant id and round number, so the
  output is deterministic whatever order observations streamed in.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.api.registry import create_tuner
from repro.api.session import TuningSession
from repro.core.linear_bandit import batch_upper_confidence_scores
from repro.core.tuner import MabTuner
from repro.harness.metrics import FleetSummary, RoundReport, RunReport

from .errors import DuplicateTenantError, UnknownTenantError
from .interning import DatabaseInterner
from .specs import FleetConfig, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.api.session import DatabaseEvent
    from repro.core.tuner import PoolRound
    from repro.engine.query import Query
    from repro.interface import Recommendation
    from repro.workloads.generator import WorkloadRound

__all__ = ["TuningFleet"]


@dataclass
class _PendingRound:
    """One queued round for one tenant: queries plus the round protocol.

    Carrying the full protocol (events, offline-tool training workload,
    shift flag, round number) through the queue is what keeps submit/drain
    bit-identical to standalone :meth:`~repro.api.TuningSession.step_workload_round`
    calls even when tenants run *different* workload regimes concurrently.
    """

    queries: "list[Query]"
    events: "tuple[DatabaseEvent, ...]" = ()
    training_queries: "list[Query] | None" = None
    is_shift_round: bool = False
    round_number: int | None = None


class TuningFleet:
    """N tuning sessions keyed by tenant id, stepped as one service.

    Tenants register through frozen :class:`~repro.fleet.TenantSpec` recipes
    (never live objects), get their databases from the fleet's interner, and
    are stepped either synchronously (:meth:`step`) or through the
    submit/drain queue.  Per-tenant results are bit-identical to running the
    same spec in its own standalone :class:`~repro.api.TuningSession` — the
    fleet changes *how much* work runs per pass, never the numbers.
    """

    def __init__(
        self,
        tenants: Iterable[TenantSpec] = (),
        config: FleetConfig | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.interner = DatabaseInterner()
        self._sessions: dict[str, TuningSession] = {}
        self._queue: dict[str, deque[_PendingRound]] = {}
        for spec in tenants:
            self.add_tenant(spec)

    # ------------------------------------------------------------------ #
    # tenant registry
    # ------------------------------------------------------------------ #
    def add_tenant(self, spec: TenantSpec) -> TuningSession:
        """Register one tenant and build its session.

        Raises:
            DuplicateTenantError: If ``spec.tenant_id`` is already
                registered (tenant ids key the deterministic merge).
            repro.api.UnknownTunerError: If ``spec.tuner`` is not a
                built-in tuner name.
        """
        if spec.tenant_id in self._sessions:
            raise DuplicateTenantError(spec.tenant_id)
        if self.config.intern_databases:
            database = self.interner.database_for(spec.database)
        else:
            database = spec.database.create()
        tuner = create_tuner(spec.tuner, database, spec.tuner_spec)
        options = spec.options or self.config.default_options
        session = TuningSession(database, tuner, options)
        self._sessions[spec.tenant_id] = session
        return session

    def session(self, tenant_id: str) -> TuningSession:
        """The tenant's live session (raises :class:`UnknownTenantError`)."""
        try:
            return self._sessions[tenant_id]
        except KeyError:
            raise UnknownTenantError(tenant_id, self._sessions) from None

    @property
    def tenant_ids(self) -> list[str]:
        """Registered tenant ids, sorted (the fleet's canonical order)."""
        return sorted(self._sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, tenant_id: object) -> bool:
        return tenant_id in self._sessions

    @property
    def reports(self) -> dict[str, RunReport]:
        """Each tenant's accumulated run report, keyed in canonical order."""
        return {tid: self._sessions[tid].report for tid in self.tenant_ids}

    def summary(self) -> FleetSummary:
        """Fleet-level throughput/cost rollup of every tenant's report."""
        return FleetSummary.from_reports(self.reports)

    # ------------------------------------------------------------------ #
    # the queue-driven step API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        tenant_id: str,
        queries: Iterable[Query],
        events: "Iterable[DatabaseEvent]" = (),
        training_queries: "list[Query] | None" = None,
        is_shift_round: bool = False,
        round_number: int | None = None,
    ) -> None:
        """Enqueue one round's query batch (and its round protocol) for a tenant.

        Submissions may arrive in any order across tenants; each tenant's own
        batches run in submission order, and :meth:`drain` merges results by
        tenant id and round number, so the arrival order is unobservable in
        the output.  ``events`` are the round's workload-visible environment
        changes (see :mod:`repro.workloads.stress`), applied to the tenant's
        database just before its recommendation when the round runs;
        ``training_queries``, ``is_shift_round`` and ``round_number`` mirror
        the single-session :meth:`~repro.api.TuningSession.step` protocol and
        are carried per submission, so tenants running different workload
        regimes stay bit-identical to their standalone sessions.

        Raises:
            UnknownTenantError: If nobody registered ``tenant_id``.
        """
        if tenant_id not in self._sessions:
            raise UnknownTenantError(tenant_id, self._sessions)
        self._queue.setdefault(tenant_id, deque()).append(
            _PendingRound(
                queries=list(queries),
                events=tuple(events),
                training_queries=training_queries,
                is_shift_round=is_shift_round,
                round_number=round_number,
            )
        )

    def submit_workload_round(
        self, tenant_id: str, workload_round: "WorkloadRound"
    ) -> None:
        """Enqueue one pre-materialised workload round for a tenant.

        The convenience spelling for stress rosters: carries the round's
        queries, events, offline-tool training workload, shift flag and round
        number through the queue, so a drained fleet replays exactly what
        :meth:`~repro.api.TuningSession.step_workload_round` would run.
        """
        self.submit(
            tenant_id,
            workload_round.queries,
            events=workload_round.events,
            training_queries=workload_round.pdtool_training_queries,
            is_shift_round=workload_round.is_shift_round,
            round_number=workload_round.round_number,
        )

    @property
    def pending_rounds(self) -> int:
        """Submitted query batches not yet drained."""
        return sum(len(batches) for batches in self._queue.values())

    def drain(self) -> dict[str, list[RoundReport]]:
        """Run every submitted round; deterministic per-tenant results.

        Rounds are processed in waves — wave *k* steps every tenant holding a
        *k*-th pending batch, in canonical (sorted tenant id) order — so each
        wave's MAB tenants share one batched scoring pass.

        Returns:
            ``{tenant_id: [RoundReport, ...]}`` with tenants in canonical
            order and each tenant's reports in its own submission order,
            independent of how submissions interleaved.
        """
        queue = self._queue
        self._queue = {}
        reports: dict[str, list[RoundReport]] = {tid: [] for tid in sorted(queue)}
        while any(queue.values()):
            wave = {
                tenant_id: batches.popleft()
                for tenant_id, batches in sorted(queue.items())
                if batches
            }
            for tenant_id, report in self._run_wave(wave).items():
                reports[tenant_id].append(report)
        return reports

    # ------------------------------------------------------------------ #
    # synchronous stepping
    # ------------------------------------------------------------------ #
    def step(
        self,
        batch: Mapping[str, list[Query]],
        training_queries: "list[Query] | None" = None,
        is_shift_round: bool = False,
        round_number: int | None = None,
        events: "Mapping[str, tuple[DatabaseEvent, ...]] | None" = None,
    ) -> dict[str, RoundReport]:
        """Run one full round for every tenant in ``batch``.

        MAB tuners are scored together in one vectorized pass; the rest
        recommend per session.  Execution and observation always
        run per tenant, in canonical order.  ``training_queries``,
        ``is_shift_round`` and ``round_number`` mirror the single-session
        :meth:`~repro.api.TuningSession.step` protocol (offline tuners see
        the training workload; pool tuners ignore it).  ``events`` maps
        tenant ids to this round's workload-visible environment changes
        (see :mod:`repro.workloads.stress`), applied to each tenant's
        database in canonical order *before* any recommendation — exactly
        where a standalone session applies them.

        Raises:
            UnknownTenantError: If ``batch`` (or ``events``) names an
                unregistered tenant.
            ValueError: If ``events`` names a tenant missing from ``batch``
                — its events would otherwise never reach its database.
        """
        if events:
            for tenant_id in events:
                if tenant_id not in self._sessions:
                    raise UnknownTenantError(tenant_id, self._sessions)
                if tenant_id not in batch:
                    raise ValueError(
                        f"events name tenant {tenant_id!r}, which is not in "
                        "this round's batch; step it with a query batch too"
                    )
        wave = {
            tenant_id: _PendingRound(
                queries=queries,
                events=events.get(tenant_id, ()) if events else (),
                training_queries=training_queries,
                is_shift_round=is_shift_round,
                round_number=round_number,
            )
            for tenant_id, queries in batch.items()
        }
        return self._run_wave(wave)

    def _run_wave(self, wave: Mapping[str, _PendingRound]) -> dict[str, RoundReport]:
        """Run one round for every tenant in ``wave``, per-tenant protocol.

        Events first (canonical order), then one batched scoring pass over
        the MAB tenants, then per-tenant execute/observe — each step using
        that tenant's own round metadata.
        """
        order = sorted(wave)
        for tenant_id in order:
            if tenant_id not in self._sessions:
                raise UnknownTenantError(tenant_id, self._sessions)
        for tenant_id in order:
            self._sessions[tenant_id].apply_events(wave[tenant_id].events)
        batched = [t for t in order if self._pool_tuner(t) is not None]
        if batched:
            self._adopt_batched_recommendations(
                batched, {t: wave[t].round_number for t in batched}
            )
        direct = set(order) - set(batched)
        reports: dict[str, RoundReport] = {}
        for tenant_id in order:
            pending = wave[tenant_id]
            session = self._sessions[tenant_id]
            if tenant_id in direct:
                session.recommend(
                    pending.training_queries, round_number=pending.round_number
                )
            session.execute(pending.queries)
            reports[tenant_id] = session.observe(is_shift_round=pending.is_shift_round)
        return reports

    def step_workload_round(
        self, workload_round: "WorkloadRound"
    ) -> dict[str, RoundReport]:
        """Step every registered tenant over one shared workload round.

        The round's :attr:`~repro.workloads.generator.WorkloadRound.events`
        are applied to every tenant, mirroring the standalone
        :meth:`~repro.api.TuningSession.step_workload_round` protocol.
        """
        return self.step(
            {tid: workload_round.queries for tid in self.tenant_ids},
            training_queries=workload_round.pdtool_training_queries,
            is_shift_round=workload_round.is_shift_round,
            round_number=workload_round.round_number,
            events={tid: workload_round.events for tid in self.tenant_ids}
            if workload_round.events
            else None,
        )

    # ------------------------------------------------------------------ #
    # batched recommendation internals
    # ------------------------------------------------------------------ #
    def _pool_tuner(self, tenant_id: str) -> "MabTuner | None":
        """The tenant's tuner iff it can be scored through the pool protocol."""
        tuner = self._sessions[tenant_id].tuner
        return tuner if isinstance(tuner, MabTuner) else None

    def _adopt_batched_recommendations(
        self, tenant_ids: list[str], round_numbers: Mapping[str, int | None]
    ) -> None:
        """One vectorized scoring pass feeding many sessions' next rounds.

        Replays exactly the per-session operation sequence for each tenant —
        ``begin_round`` (QoI window, arm refresh, alpha), context build,
        UCB scores, ``complete_round`` (tie-break draw, oracle selection) —
        with only the score computation fused across tenants, which is
        bit-identical by :func:`batch_upper_confidence_scores`'s contract.

        The pass is timed once, as a whole, and every tenant is charged an
        even share of it as its C_rec: a tenant's own rounds are interleaved
        with everyone else's, so no per-tenant span would be its own work.
        """
        started = time.perf_counter()
        finished: dict[str, Recommendation] = {}
        open_pools: list[tuple[str, MabTuner, PoolRound]] = []
        blocks: list[np.ndarray] = []
        for tenant_id in tenant_ids:
            session = self._sessions[tenant_id]
            tuner = self._pool_tuner(tenant_id)
            assert tuner is not None
            round_number = round_numbers.get(tenant_id)
            pool = tuner.begin_round(
                round_number if round_number is not None else session.round_number + 1
            )
            if pool.arms is None:
                finished[tenant_id] = tuner.complete_round(pool, None)
            else:
                blocks.append(tuner.pool_contexts(pool))
                open_pools.append((tenant_id, tuner, pool))
        if open_pools:
            all_scores = batch_upper_confidence_scores(
                [tuner.bandit for _, tuner, _ in open_pools],
                blocks,
                [pool.alpha for _, _, pool in open_pools],
            )
            for (tenant_id, tuner, pool), scores in zip(open_pools, all_scores):
                finished[tenant_id] = tuner.complete_round(pool, scores)
        share = (time.perf_counter() - started) / len(tenant_ids)
        for tenant_id in tenant_ids:
            self._sessions[tenant_id].adopt_recommendation(
                finished[tenant_id],
                round_number=round_numbers.get(tenant_id),
                wall_seconds=share,
            )
