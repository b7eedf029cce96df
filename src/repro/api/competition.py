"""Competitions: several tuners racing over the same workload, optionally in parallel.

:func:`run_competition` runs every entry as its own :class:`TuningSession` on
its own identically-seeded database.  Because the sessions share nothing (the
workload is materialised once, read-only), they fan out across processes with
``workers > 1`` and the merged ``{label: RunReport}`` mapping is deterministic
— same reports, same order — whatever the worker count.

Parallel entries must be picklable: name the tuner by its table name (or a
``(name, TunerSpec)`` pair) and build databases through a picklable factory
such as :class:`DatabaseSpec`.  Arbitrary ``Callable[[Database], Tuner]``
entries are still accepted for sequential runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Union

import multiprocessing

from repro.engine.backend import BackendProfile, PlacementLike
from repro.engine.catalog import Database
from repro.harness.metrics import RunReport
from repro.interface import Tuner

from .registry import TunerSpec, create_tuner
from .session import SimulationOptions, run_simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.generator import WorkloadRound

__all__ = ["CompetitionEntry", "DatabaseSpec", "run_competition"]

#: One competitor: a tuner name, a (name, spec) pair, or a raw factory.
CompetitionEntry = Union[str, "tuple[str, TunerSpec]", Callable[[Database], Tuner]]


@dataclass(frozen=True)
class DatabaseSpec:
    """A picklable recipe for identically-seeded benchmark databases.

    Calling the spec (or :meth:`create`) materialises a fresh database, so it
    slots in anywhere a ``database_factory`` is expected — including across
    process boundaries, where closures cannot travel.  ``backend`` names the
    default storage tier the database's cost model prices operators with (a
    built-in profile name or a :class:`~repro.engine.BackendProfile`
    instance — both pickle cleanly); ``None`` keeps the default ``hdd`` tier.
    ``table_backends`` places individual tables on their own tiers — a
    ``{table: backend}`` mapping of overrides on top of ``backend`` — and
    pickles across workers.  The spec is the one place that says where
    tables live; :meth:`repro.engine.Database.set_table_backend` moves a
    table mid-run.
    """

    benchmark_name: str
    scale_factor: float | None = None
    sample_rows: int = 4000
    seed: int = 7
    memory_budget_multiplier: float | None = 1.0
    backend: "str | BackendProfile | None" = None
    table_backends: PlacementLike = None

    def intern_key(self) -> "tuple[object, ...]":
        """A hashable identity for the database this spec materialises.

        Two specs with equal intern keys build bit-identical databases —
        the key is every field, with the ``table_backends`` mapping (the one
        unhashable spelling) rendered as sorted items.  The fleet's
        :class:`~repro.fleet.DatabaseInterner` memoises materialisation on
        this key so N identical tenants share one statistics snapshot.
        """
        placement: object = self.table_backends
        if isinstance(placement, Mapping):
            placement = tuple(sorted(placement.items()))
        return (
            self.benchmark_name,
            self.scale_factor,
            self.sample_rows,
            self.seed,
            self.memory_budget_multiplier,
            self.backend,
            placement,
        )

    def __hash__(self) -> int:
        # The generated hash would choke on a dict-valued table_backends;
        # hash the normalised intern key instead (consistent with field
        # equality, since the key is a faithful rendering of every field).
        return hash(self.intern_key())

    def create(self) -> Database:
        from repro.workloads.registry import get_benchmark

        return get_benchmark(self.benchmark_name).create_database(
            scale_factor=self.scale_factor,
            sample_rows=self.sample_rows,
            seed=self.seed,
            memory_budget_multiplier=self.memory_budget_multiplier,
            backend=self.backend,
            table_backends=self.table_backends,
        )

    def __call__(self) -> Database:
        return self.create()


def _build_tuner(entry: CompetitionEntry, database: Database) -> Tuner:
    if isinstance(entry, str):
        return create_tuner(entry, database)
    if isinstance(entry, tuple):
        name, spec = entry
        return create_tuner(name, database, spec)
    return entry(database)


def _run_entry(
    label: str,
    entry: CompetitionEntry,
    database_factory: Callable[[], Database],
    workload_rounds: "list[WorkloadRound]",
    options: SimulationOptions | None,
) -> RunReport:
    database = database_factory()
    tuner = _build_tuner(entry, database)
    trace = run_simulation(database, tuner, workload_rounds, options)
    trace.report.tuner_name = label
    return trace.report


def _worker_count(workers: int, n_entries: int) -> int:
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_entries))


def run_competition(
    database_factory: Callable[[], Database],
    tuners: Mapping[str, CompetitionEntry],
    workload_rounds: "list[WorkloadRound]",
    options: SimulationOptions | None = None,
    workers: int = 1,
) -> dict[str, RunReport]:
    """Run several tuners over the *same* workload, each on a fresh database.

    Args:
        database_factory: Builds identically seeded databases so that every
            tuner faces the same data; must be picklable (e.g. a
            :class:`DatabaseSpec`) when ``workers > 1``.
        tuners: Report labels mapped to competition entries — a tuner
            name, a ``(name, TunerSpec)`` pair, or (sequential runs only) a
            raw ``Callable[[Database], Tuner]``.
        workload_rounds: The shared workload, materialised once (against any
            of those identical databases).
        options: Execution-layer options applied to every session.
        workers: ``> 1`` fans the sessions out across that many processes;
            ``0`` uses every CPU; ``1`` (default) runs sequentially.

    Returns:
        ``{label: RunReport}`` keyed and ordered by ``tuners`` regardless of
        completion order, so parallel and sequential runs merge identically.

    Raises:
        ValueError: When ``workers > 1`` is combined with any
            ``options.on_round`` callback — per-round callbacks cannot cross
            process boundaries.
        repro.api.UnknownTunerError: For an entry name that is not a built-in tuner.
    """
    workers = _worker_count(workers, len(tuners))
    if workers <= 1:
        return {
            label: _run_entry(label, entry, database_factory, workload_rounds, options)
            for label, entry in tuners.items()
        }

    if options is not None and options.on_round is not None:
        raise ValueError(
            "per-round callbacks cannot cross process boundaries; "
            "use workers=1 or drop options.on_round"
        )
    # The platform-default start method: fork on Linux (fast), spawn where
    # forking a multithreaded/Objective-C parent is unsafe.  Parallel entries
    # are required to be picklable either way.
    context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = {
            label: pool.submit(
                _run_entry, label, entry, database_factory, workload_rounds, options
            )
            for label, entry in tuners.items()
        }
        return {label: future.result() for label, future in futures.items()}
