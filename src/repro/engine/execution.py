"""Query execution simulator.

The executor times a :class:`~repro.engine.plans.QueryPlan` using *true*
cardinalities measured on the materialised table samples, producing the
"actual elapsed time" observations the bandit learns from.  Because the plan
was chosen by the optimiser using *estimated* cardinalities, a bad estimate
(skew, correlated predicates) produces exactly the regressions the paper
describes: e.g. an index-nested-loop join chosen for a hugely underestimated
outer cardinality blows up at run time.

The executor also records, per table, the access time attributable to each
index used and the full-scan reference time for the same table — the two
quantities the paper's reward definition (Section IV, "Reward shaping") needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Database
from .cost_model import CostModel
from .errors import ExecutionError
from .plans import AccessMethod, JoinMethod, QueryPlan, TableAccessPlan
from .query import Predicate
from .storage import TableData


@dataclass
class TableAccessResult:
    """Observed access statistics for one table of one executed query."""

    table: str
    method: str
    index_id: str | None
    #: Actual time spent producing this table's rows (seconds).
    actual_seconds: float
    #: Reference time of a full scan of the same table (seconds).
    full_scan_seconds: float
    #: True number of rows this table contributed after its filters.
    true_rows: int

    @property
    def index_gain_seconds(self) -> float:
        """Gain attributable to the index used for this access (may be negative)."""
        if self.index_id is None:
            return 0.0
        return self.full_scan_seconds - self.actual_seconds


@dataclass
class ExecutionResult:
    """Everything the system observes about one executed query."""

    query_id: str
    template_id: str
    total_seconds: float
    access_results: list[TableAccessResult] = field(default_factory=list)
    join_seconds: float = 0.0
    estimated_seconds: float = 0.0


#: ``TableAccessResult.method`` of each access method (``Enum.value`` is a
#: Python-level descriptor, read for every access otherwise).
_ACCESS_METHOD_NAMES = {method: method.value for method in AccessMethod}


class Executor:
    """Times query plans against a :class:`Database` using true cardinalities."""

    def __init__(self, database: Database, noise_sigma: float = 0.03, seed: int = 11) -> None:
        """Bind the executor to ``database``.

        Raises:
            ValueError: If ``noise_sigma`` is negative or not finite.
        """
        if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and non-negative")
        self.database = database
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, plan: QueryPlan) -> ExecutionResult:
        """Execute (i.e. time) a plan and return the observed statistics."""
        query = plan.query
        if not query.tables:
            raise ExecutionError(f"query {query.query_id} references no tables")
        database = self.database
        cost_model = database.cost_model
        shape = query.shape
        all_predicates = query.predicates
        accesses = plan.accesses
        access_results: list[TableAccessResult] = []
        table_data: dict[str, TableData] = {}
        per_table_rows: dict[str, int] = {}

        # Base accesses: the driving table plus every hash-joined table.
        inl_tables = {
            step.inner_table
            for step in plan.join_steps
            if step.method is JoinMethod.INDEX_NESTED_LOOP
        }
        for table_name, table_shape in shape.items():
            data = table_data[table_name] = database.table_data(table_name)
            predicates = tuple(
                [all_predicates[position] for position in table_shape.predicate_positions]
            )
            true_rows = data.true_cardinality(predicates)
            per_table_rows[table_name] = true_rows
            if table_name in inl_tables:
                continue  # accessed through the join-step index probe instead
            access = accesses.get(table_name)
            if access is None:
                access = TableAccessPlan(table=table_name, method=AccessMethod.FULL_SCAN)
            seconds = self._time_access(cost_model, access, data, predicates, true_rows)
            access_results.append(
                TableAccessResult(
                    table=table_name,
                    method=_ACCESS_METHOD_NAMES[access.method],
                    index_id=access.index.index_id if access.index else None,
                    actual_seconds=seconds,
                    full_scan_seconds=cost_model.full_scan_seconds(data),
                    true_rows=true_rows,
                )
            )

        # Join pipeline.  The probe/outer stream is priced at the tier of the
        # driving table feeding it (intermediate results inherit that tier);
        # each inner side is priced at its own table's tier.
        join_seconds = 0.0
        driving_data = database.table_data(plan.driving_table or query.tables[0])
        current_rows = per_table_rows.get(driving_data.table.name, 1)
        for step in plan.join_steps:
            inner_data = table_data[step.inner_table]
            inner_rows = per_table_rows[step.inner_table]
            # Containment with the *true* distinct count of the inner join
            # key (from the generator hints): each outer row matches
            # ``inner_rows / distinct`` inner rows on average.  Skew and
            # correlation still shape the single-table cardinalities; keeping
            # the per-key multiplicity at its true average prevents the
            # blow-ups a sample-based distinct estimate would produce on
            # heavily skewed reference columns.  Without a join column the
            # step is a cross product scaled by the inner full row count.
            join_columns = shape[step.inner_table].join_columns
            distinct = max(1, inner_data.distinct_count(join_columns[0])) if join_columns else None
            if step.method is JoinMethod.HASH_JOIN:
                join_seconds += cost_model.hash_join_seconds(
                    inner_rows,
                    current_rows,
                    build_data=inner_data,
                    probe_data=driving_data,
                )
            else:
                if step.index is None:
                    raise ExecutionError(
                        f"query {query.query_id}: index-nested-loop step on "
                        f"{step.inner_table} has no probe index"
                    )
                if distinct is None:
                    rows_per_probe = float(inner_rows)
                else:
                    rows_per_probe = max(
                        inner_rows / distinct, inner_rows / max(1, inner_data.full_row_count)
                    )
                probe_seconds = cost_model.index_nested_loop_seconds(
                    outer_rows=current_rows,
                    inner_index=step.index,
                    inner_data=inner_data,
                    rows_per_probe=rows_per_probe,
                    covering=step.covering,
                    outer_data=driving_data,
                )
                access_results.append(
                    TableAccessResult(
                        table=step.inner_table,
                        method="index_nested_loop_probe",
                        index_id=step.index.index_id,
                        actual_seconds=probe_seconds,
                        full_scan_seconds=cost_model.full_scan_seconds(inner_data),
                        true_rows=inner_rows,
                    )
                )
            if distinct is None:
                distinct = max(1, inner_data.full_row_count)
            current_rows = max(1, int(current_rows * inner_rows / distinct))

        aggregation_seconds = cost_model.aggregation_seconds(current_rows)
        base_seconds = sum(result.actual_seconds for result in access_results)
        total = (
            base_seconds
            + join_seconds
            + aggregation_seconds
            + cost_model.profile.per_query_overhead_seconds
        )
        total *= self._noise_factor()
        return ExecutionResult(
            query_id=query.query_id,
            template_id=query.template_id,
            total_seconds=total,
            access_results=access_results,
            join_seconds=join_seconds,
            estimated_seconds=plan.estimated_seconds,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _noise_factor(self) -> float:
        if self.noise_sigma <= 0:
            return 1.0
        return float(self._rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    @staticmethod
    def _time_access(
        cost_model: CostModel,
        access: TableAccessPlan,
        data: TableData,
        predicates: tuple[Predicate, ...],
        true_rows: int,
    ) -> float:
        if access.method is AccessMethod.FULL_SCAN or access.index is None:
            return cost_model.full_scan_seconds(data)
        if access.method is AccessMethod.INDEX_ONLY_SCAN:
            return cost_model.index_only_scan_seconds(access.index, data)
        # Index seek: matching rows are determined by the predicates on the
        # seekable key prefix only (the remaining predicates are residual
        # filters applied after the fetch).
        prefix_columns = access.index.key_prefix(access.seek_prefix_length)
        prefix_predicates = tuple(
            predicate for predicate in predicates if predicate.column in prefix_columns
        )
        matching_rows = data.true_cardinality(prefix_predicates) if prefix_predicates else data.full_row_count
        matching_rows = max(matching_rows, true_rows)
        return cost_model.index_seek_seconds(
            access.index, data, matching_rows, covering=access.covering
        )
