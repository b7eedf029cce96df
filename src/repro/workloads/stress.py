"""Adversarial workload stressors: the paper's "safe under ad-hoc workloads" test bed.

The paper's pitch is *safe* online index tuning under ad-hoc, shifting
workloads, but the three classic regimes (static / shifting / random) are
mild.  This module supplies a family of adversarial
:class:`~repro.workloads.generator.WorkloadSequence` subclasses — each one a
named *stressor* — that the safety benchmark
(``benchmarks/test_stress_suite.py``) races every built-in tuner against:

* :class:`FlashTrafficWorkload` — one template's frequency multiplies 10-50x
  for a few rounds, then collapses back to baseline;
* :class:`SeasonalWorkload` — sinusoidal template-weight rotation (periodic
  drift: the hot set wanders and returns);
* :class:`ChurnWorkload` — a fraction of every round is ad-hoc queries
  synthesised from the schema, drawn once and never seen again;
* :class:`SchemaGrowthWorkload` — tables appear mid-run: the active template
  set starts on a core table subset and expands, each arrival growing the new
  table's data volume and refreshing statistics
  (:class:`TableGrowthEvent` → :meth:`repro.engine.Database.grow_table`);
* :class:`TierMigrationWorkload` — a hot table scheduled to move into memory
  and back mid-run, as a workload-visible stressor (:class:`TierMigrationEvent`
  → :meth:`repro.engine.Database.set_table_backend`).

A stressor only plans its rounds' queries, shift flags and events; the round
loop, and with it the PDTool protocol, is
:meth:`WorkloadSequence.rounds <repro.workloads.generator.WorkloadSequence.rounds>`,
shared with the classic regimes.  :class:`ChurnWorkload` uses the random
regime's every-4-rounds rule; the others use the segment rule (PDTool once,
on round 2).  Every stressor is therefore **deterministic under its seed** and
safe to re-iterate: ``rounds()`` restarts its private RNG on every call, so
two instances built with the same seed — and two iterations of the same
instance — produce identical round streams (pinned by
:func:`sequence_fingerprint` digests in ``tests/test_workload_streams.py``).

Environment changes ride on :attr:`WorkloadRound.events` as frozen, picklable
event specs; the driver (:meth:`repro.api.TuningSession.step_workload_round`,
or the fleet's submit/drain queue) applies them to *its* database before the
round's recommendation, so every competing tuner faces the same shifting
world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine.catalog import Database
from repro.engine.query import Operator, Query

from .generator import PlannedRound, WorkloadRound, WorkloadSequence
from .templates import PredicateTemplate, QueryTemplate, ValueMode


# --------------------------------------------------------------------- #
# workload-visible environment events
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TierMigrationEvent:
    """Move one table across storage tiers before the round runs.

    ``backend=None`` demotes the table back to the database's default tier;
    any built-in backend name promotes (or re-places) it.  Applied through
    :meth:`repro.engine.Database.set_table_backend`, so the very next plan
    prices the table at its new tier.
    """

    table: str
    backend: str | None = "inmemory"

    def apply(self, database: Database) -> None:
        database.set_table_backend(self.table, self.backend)

    def describe(self) -> str:
        if self.backend is None:
            return f"demote {self.table} to the default tier"
        return f"promote {self.table} to {self.backend}"


@dataclass(frozen=True)
class TableGrowthEvent:
    """Grow one table's logical row count and refresh optimiser statistics.

    Models data ingest / a table arriving with real volume: the sample stays
    fixed, the priced row count multiplies, and
    :meth:`repro.engine.Database.grow_table` builds a new table memo and
    drops the size caches, so optimiser statistics, index sizes, scan costs
    and context features all see the new world.
    """

    table: str
    row_multiplier: float = 2.0

    def apply(self, database: Database) -> None:
        database.grow_table(self.table, self.row_multiplier)

    def describe(self) -> str:
        return f"grow {self.table} rows by {self.row_multiplier:g}x"


class FlashTrafficWorkload(WorkloadSequence):
    """Flash-traffic spike: one template's frequency multiplies, then collapses.

    Baseline rounds instantiate every template once (the static regime).
    During the spike window ``[spike_start, spike_start + spike_length)`` the
    spiked template — chosen by the seeded RNG unless pinned via
    ``spike_template_index`` — contributes ``spike_multiplier`` instances per
    round instead of one, then the spike collapses back to baseline.  The
    safety question: does a tuner over-rotate its configuration onto a burst
    that will be gone three rounds later?
    """

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 20,
        spike_multiplier: int = 20,
        spike_start: int | None = None,
        spike_length: int = 3,
        spike_template_index: int | None = None,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if spike_multiplier < 2:
            raise ValueError("spike_multiplier must be at least 2")
        if spike_length <= 0:
            raise ValueError("spike_length must be positive")
        if spike_template_index is not None and not (
            0 <= spike_template_index < len(self.templates)
        ):
            raise ValueError("spike_template_index out of range")
        self.spike_multiplier = spike_multiplier
        self.spike_start = spike_start if spike_start is not None else self.n_rounds // 3 + 1
        self.spike_length = spike_length
        self.spike_template_index = spike_template_index

    @property
    def spike_rounds(self) -> range:
        """Round numbers (1-based) inside the spike window."""
        return range(self.spike_start, self.spike_start + self.spike_length)

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        if self.spike_template_index is not None:
            hot = self.templates[self.spike_template_index]
        else:
            hot = self.templates[int(rng.integers(0, len(self.templates)))]
        spike = self.spike_rounds
        for round_number in range(1, self.n_rounds + 1):
            round_templates = list(self.templates)
            if round_number in spike:
                round_templates.extend([hot] * (self.spike_multiplier - 1))
            yield PlannedRound(
                self._instantiate(round_templates, rng),
                is_shift_round=round_number in (spike.start, spike.stop),
            )


class SeasonalWorkload(WorkloadSequence):
    """Seasonal / periodic drift: sinusoidal template-weight rotation.

    Each template ``i`` carries a phase-shifted sinusoidal weight
    ``1 + amplitude * sin(2π (t / period + i / n_templates))`` and every round
    draws ``queries_per_round`` templates from the normalised weights.  The
    hot set drifts smoothly, wanders all the way around, and *returns* — the
    opposite failure mode from churn: a tuner that drops indexes the moment
    their templates cool off pays for them again every period.
    """

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 24,
        period: int = 8,
        amplitude: float = 0.95,
        queries_per_round: int | None = None,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if period <= 1:
            raise ValueError("period must be at least 2 rounds")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be within [0, 1)")
        self.period = period
        self.amplitude = amplitude
        self.queries_per_round = queries_per_round or len(self.templates)

    def weights(self, round_number: int) -> np.ndarray:
        """Unnormalised template weights in effect for one round."""
        phases = np.arange(len(self.templates)) / len(self.templates)
        angle = 2.0 * np.pi * (round_number / self.period + phases)
        return 1.0 + self.amplitude * np.sin(angle)

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        for round_number in range(1, self.n_rounds + 1):
            weights = self.weights(round_number)
            probabilities = weights / weights.sum()
            drawn = rng.choice(
                len(self.templates),
                size=self.queries_per_round,
                replace=True,
                p=probabilities,
            )
            round_templates = [self.templates[int(i)] for i in drawn]
            yield PlannedRound(self._instantiate(round_templates, rng))


class ChurnWorkload(WorkloadSequence):
    """Template churn: ad-hoc queries drawn once and never seen again.

    Every round, a ``churn_rate`` fraction of the queries comes from brand-new
    single-table templates synthesised from the database schema (fresh ids,
    fresh predicate structure — retired immediately after the round); the
    remainder is drawn uniformly from the base templates.  This is the paper's
    "ad-hoc cloud workload" pushed to the hostile end: most of what the tuner
    just learned about is worthless next round, and every index built for a
    churned template is a pure regression.
    """

    #: PDTool sees the ad-hoc protocol of the random regime: invoked every 4
    #: rounds, trained on the queries seen since last time.
    pdtool_every = 4

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 20,
        churn_rate: float = 0.7,
        queries_per_round: int | None = None,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if not 0.0 <= churn_rate <= 1.0:
            raise ValueError("churn_rate must be within [0, 1]")
        self.churn_rate = churn_rate
        self.queries_per_round = queries_per_round or len(self.templates)

    def _synthesise_template(
        self, rng: np.random.Generator, round_number: int, ordinal: int
    ) -> QueryTemplate:
        """One never-again ad-hoc template over a random table's columns."""
        table_name = self.database.table_names[
            int(rng.integers(0, len(self.database.table_names)))
        ]
        columns = self.database.schema.columns_of(table_name)
        n_predicates = int(rng.integers(1, min(2, len(columns)) + 1))
        positions = rng.choice(len(columns), size=n_predicates, replace=False)
        predicates = []
        for position in positions:
            column = columns[int(position)]
            if column.ctype.is_numeric and rng.random() < 0.6:
                operator = (Operator.BETWEEN, Operator.GE, Operator.LE)[
                    int(rng.integers(0, 3))
                ]
                predicates.append(
                    PredicateTemplate(
                        table_name,
                        column.name,
                        operator,
                        mode=ValueMode.RANGE_FRACTION,
                        fraction_range=(0.05, 0.25),
                    )
                )
            else:
                predicates.append(
                    PredicateTemplate(table_name, column.name, Operator.EQ)
                )
        payload_columns = tuple(column.name for column in columns[: max(n_predicates, 1)])
        return QueryTemplate(
            template_id=f"adhoc-r{round_number}-{ordinal}",
            tables=(table_name,),
            payload={table_name: payload_columns},
            predicates=tuple(predicates),
            description="synthesised ad-hoc query (never repeated)",
        )

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        for round_number in range(1, self.n_rounds + 1):
            n_adhoc = int(round(self.churn_rate * self.queries_per_round))
            round_templates = [
                self._synthesise_template(rng, round_number, ordinal)
                for ordinal in range(n_adhoc)
            ]
            for _ in range(self.queries_per_round - n_adhoc):
                round_templates.append(
                    self.templates[int(rng.integers(0, len(self.templates)))]
                )
            yield PlannedRound(self._instantiate(round_templates, rng))


class SchemaGrowthWorkload(WorkloadSequence):
    """Schema growth: tables appear mid-run, with data volume and fresh statistics.

    The sequence starts on a *core* subset of tables (those of the first
    template) and only instantiates templates fully covered by the active
    set.  Every ``growth_every`` rounds the next table (in first-appearance
    order across the template list) is unlocked: templates touching it join
    the workload, and the round carries a :class:`TableGrowthEvent` that
    multiplies the arriving table's row count and refreshes optimiser
    statistics — so the tuner faces queries over tables it has never seen,
    whose statistics just changed under it.
    """

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 20,
        growth_every: int = 4,
        row_multiplier: float = 3.0,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if growth_every <= 0:
            raise ValueError("growth_every must be positive")
        if row_multiplier <= 0:
            raise ValueError("row_multiplier must be positive")
        self.growth_every = growth_every
        self.row_multiplier = row_multiplier
        #: Tables in first-appearance order across the template list.
        self.table_order: list[str] = []
        for template in self.templates:
            for table in template.tables:
                if table not in self.table_order:
                    self.table_order.append(table)
        #: The initial (pre-growth) active table set.
        self.core_tables = tuple(self.templates[0].tables)

    def active_templates(self, active_tables: set[str]) -> list[QueryTemplate]:
        """Templates whose tables are all present in the active set."""
        return [
            template
            for template in self.templates
            if set(template.tables) <= active_tables
        ]

    def growth_schedule(self) -> dict[int, str]:
        """``{round_number: arriving_table}`` for the whole sequence."""
        pending = [t for t in self.table_order if t not in set(self.core_tables)]
        schedule: dict[int, str] = {}
        round_number = self.growth_every + 1
        for table in pending:
            if round_number > self.n_rounds:
                break
            schedule[round_number] = table
            round_number += self.growth_every
        return schedule

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        active_tables = set(self.core_tables)
        schedule = self.growth_schedule()
        for round_number in range(1, self.n_rounds + 1):
            events: tuple[TableGrowthEvent, ...] = ()
            arriving = schedule.get(round_number)
            if arriving is not None:
                active_tables.add(arriving)
                events = (TableGrowthEvent(arriving, self.row_multiplier),)
            yield PlannedRound(
                self._instantiate(self.active_templates(active_tables), rng),
                is_shift_round=arriving is not None,
                events=events,
            )


class TierMigrationWorkload(WorkloadSequence):
    """Mid-run tier migration: scheduled promote/demote as a workload stressor.

    Rounds are the static regime (every template once); the stress is purely
    environmental — at scheduled rounds the busiest table (the one appearing
    in the most templates, or an explicit ``migrations`` schedule) is promoted
    to a faster tier and later demoted back, changing the observed times and
    the value of every materialised index without any query change.
    """

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 18,
        migrations: tuple[tuple[int, str, str | None], ...] | None = None,
        hot_backend: str = "inmemory",
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if migrations is None:
            hot_table = self.default_hot_table()
            promote_round = self.n_rounds // 3 + 1
            demote_round = 2 * self.n_rounds // 3 + 1
            migrations = (
                (promote_round, hot_table, hot_backend),
                (demote_round, hot_table, None),
            )
        for round_number, _table, _backend in migrations:
            if not 1 <= round_number <= n_rounds:
                raise ValueError(
                    f"migration round {round_number} outside 1..{n_rounds}"
                )
        self.migrations = tuple(migrations)

    def default_hot_table(self) -> str:
        """The table appearing in the most templates (ties break by name)."""
        counts: dict[str, int] = {}
        for template in self.templates:
            for table in template.tables:
                counts[table] = counts.get(table, 0) + 1
        return min(counts, key=lambda table: (-counts[table], table))

    def migration_schedule(self) -> dict[int, tuple[TierMigrationEvent, ...]]:
        """``{round_number: events}`` for the whole sequence."""
        schedule: dict[int, tuple[TierMigrationEvent, ...]] = {}
        for round_number, table, backend in self.migrations:
            schedule[round_number] = schedule.get(round_number, ()) + (
                TierMigrationEvent(table, backend),
            )
        return schedule

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        schedule = self.migration_schedule()
        for round_number in range(1, self.n_rounds + 1):
            events = schedule.get(round_number, ())
            yield PlannedRound(
                self._instantiate(self.templates, rng),
                is_shift_round=bool(events),
                events=events,
            )


# --------------------------------------------------------------------- #
# canonical fingerprints (determinism pinning)
# --------------------------------------------------------------------- #
def query_fingerprint(query: Query) -> tuple[object, ...]:
    """Everything observable about a query except its instance ordinal.

    ``query_id`` carries a per-template instance counter that keeps ticking
    across materialisations of the *same* template objects, so determinism is
    pinned on the semantic content: template, tables, exact predicate
    literals, joins and payload.
    """
    return (
        query.template_id,
        query.tables,
        query.predicates,
        query.joins,
        tuple(sorted((table, columns) for table, columns in query.payload.items())),
    )


def round_fingerprint(workload_round: WorkloadRound) -> tuple[object, ...]:
    """Canonical content of one round: queries, protocol flags and events."""
    return (
        workload_round.round_number,
        tuple(query_fingerprint(query) for query in workload_round.queries),
        workload_round.invoke_pdtool,
        tuple(
            query_fingerprint(query)
            for query in workload_round.pdtool_training_queries or ()
        ),
        workload_round.is_shift_round,
        workload_round.events,
    )


def sequence_fingerprint(rounds: list[WorkloadRound]) -> tuple[object, ...]:
    """Canonical content of a whole materialised sequence."""
    return tuple(round_fingerprint(workload_round) for workload_round in rounds)


#: Every stressor by name, in name order.
STRESSORS: dict[str, type[WorkloadSequence]] = {
    "churn": ChurnWorkload,
    "flash_traffic": FlashTrafficWorkload,
    "schema_growth": SchemaGrowthWorkload,
    "seasonal": SeasonalWorkload,
    "tier_migration": TierMigrationWorkload,
}
