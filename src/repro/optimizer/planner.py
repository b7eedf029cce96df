"""Cost-based plan selection.

The planner chooses, per query, an access path for every referenced table and
a left-deep join order/method, minimising *estimated* cost.  Estimates come
from :class:`~repro.optimizer.cardinality.CardinalityEstimator` (uniformity +
AVI); actual run time is later determined by the executor over true
cardinalities.  The same planner is used

* by the execution pipeline (``configuration`` = the materialised indexes), and
* by the what-if interface (``configuration`` = an arbitrary hypothetical set),

which mirrors how real systems reuse the optimiser for hypothetical analysis.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.engine.catalog import Database
from repro.engine.cost_model import CostModel
from repro.engine.indexes import IndexDefinition
from repro.engine.plans import AccessMethod, JoinMethod, JoinStep, QueryPlan, TableAccessPlan
from repro.engine.query import Predicate, Query, TableShape
from repro.engine.storage import TableData

from .cardinality import CardinalityEstimator, combine_selectivities


class _TableFacts(NamedTuple):
    """What one :meth:`Planner.plan` call needs of each referenced table.

    The columns come from the query's shape, which a template's instances
    share; only the predicates (which carry the literals) are gathered here.
    """

    data: TableData
    #: The query's filter predicates on the table.
    predicates: tuple[Predicate, ...]
    #: Their columns: a seekable index key prefix is made of these.
    predicate_columns: frozenset[str]
    #: Every column the query touches on the table (covering checks).
    referenced_columns: frozenset[str]


def _table_facts(
    data: TableData, predicates: tuple[Predicate, ...], table_shape: TableShape
) -> _TableFacts:
    """One table's facts: its data, its share of ``predicates`` and its shape's columns."""
    return _TableFacts(
        data,
        tuple([predicates[position] for position in table_shape.predicate_positions]),
        table_shape.predicate_column_set,
        table_shape.referenced_column_set,
    )


class Planner:
    """Chooses minimum-estimated-cost plans for queries."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._estimator = CardinalityEstimator(database.statistics)

    @property
    def estimator(self) -> CardinalityEstimator:
        """The estimator over the database's *current* statistics.

        :meth:`Database.refresh_statistics` (and so ``grow_table``) replaces
        the catalog rather than updating it, so the estimator is rebuilt
        whenever the catalog it reads is no longer the database's.
        """
        statistics = self.database.statistics
        if self._estimator.statistics is not statistics:
            self._estimator = CardinalityEstimator(statistics)
        return self._estimator

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(
        self, query: Query, configuration: list[IndexDefinition] | None = None
    ) -> QueryPlan:
        """Return the cheapest (by estimate) plan for ``query`` under ``configuration``.

        ``configuration`` defaults to the currently materialised indexes.
        """
        database = self.database
        indexes_by_table: Mapping[str, Sequence[IndexDefinition]]
        if configuration is None:
            indexes_by_table = database.materialised_indexes_by_table
        else:
            grouped: dict[str, list[IndexDefinition]] = {}
            for index in configuration:
                grouped.setdefault(index.table, []).append(index)
            indexes_by_table = grouped
        estimator = self.estimator
        cost_model = database.cost_model

        facts = {
            name: _table_facts(database.table_data(name), query.predicates, table_shape)
            for name, table_shape in query.shape.items()
        }
        accesses = {
            name: self._best_access(
                estimator, cost_model, name, facts[name], indexes_by_table.get(name, ())
            )
            for name in query.tables
        }

        driving_table, join_steps, join_cost, result_rows = self._plan_joins(
            query, estimator, cost_model, facts, accesses, indexes_by_table
        )

        base_cost = accesses[driving_table].estimated_seconds
        inl_tables = {
            step.inner_table
            for step in join_steps
            if step.method is JoinMethod.INDEX_NESTED_LOOP
        }
        for table_name in query.tables:
            if table_name == driving_table or table_name in inl_tables:
                continue
            base_cost += accesses[table_name].estimated_seconds

        aggregation = cost_model.aggregation_seconds(int(result_rows))
        overhead = cost_model.profile.per_query_overhead_seconds
        total = base_cost + join_cost + aggregation + overhead
        return QueryPlan(
            query=query,
            accesses=accesses,
            driving_table=driving_table,
            join_steps=join_steps,
            estimated_seconds=total,
        )

    # ------------------------------------------------------------------ #
    # access-path selection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _best_access(
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        table_name: str,
        facts: _TableFacts,
        indexes: Sequence[IndexDefinition],
    ) -> TableAccessPlan:
        data, predicates, predicate_columns, referenced = facts
        # Each predicate's estimate is read once; the filtered cardinality
        # and every seek prefix multiply them in predicate order, exactly as
        # ``conjunctive_selectivity`` would.
        selectivities = [estimator.predicate_selectivity(predicate) for predicate in predicates]
        filtered_rows = estimator.cardinality_at(table_name, combine_selectivities(selectivities))

        best = TableAccessPlan(
            table=table_name,
            method=AccessMethod.FULL_SCAN,
            estimated_rows=filtered_rows,
            estimated_seconds=cost_model.full_scan_seconds(data),
        )
        for index in indexes:
            covering = index.covers_columns(referenced)
            prefix_length = index.seekable_prefix_length(predicate_columns)
            if prefix_length > 0:
                prefix_columns = index.key_prefix(prefix_length)
                prefix_selectivity = combine_selectivities(
                    [
                        selectivity
                        for predicate, selectivity in zip(predicates, selectivities)
                        if predicate.column in prefix_columns
                    ]
                )
                matching = prefix_selectivity * data.full_row_count
                seconds = cost_model.index_seek_seconds(
                    index, data, int(max(1.0, matching)), covering=covering
                )
                if seconds < best.estimated_seconds:
                    best = TableAccessPlan(
                        table=table_name,
                        method=AccessMethod.INDEX_SEEK,
                        index=index,
                        seek_prefix_length=prefix_length,
                        covering=covering,
                        estimated_rows=filtered_rows,
                        estimated_seconds=seconds,
                    )
            elif covering:
                seconds = cost_model.index_only_scan_seconds(index, data)
                if seconds < best.estimated_seconds:
                    best = TableAccessPlan(
                        table=table_name,
                        method=AccessMethod.INDEX_ONLY_SCAN,
                        index=index,
                        covering=True,
                        estimated_rows=filtered_rows,
                        estimated_seconds=seconds,
                    )
        return best

    # ------------------------------------------------------------------ #
    # join planning
    # ------------------------------------------------------------------ #
    def _plan_joins(
        self,
        query: Query,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        facts: dict[str, _TableFacts],
        accesses: dict[str, TableAccessPlan],
        indexes_by_table: Mapping[str, Sequence[IndexDefinition]],
    ) -> tuple[str, list[JoinStep], float, float]:
        """Greedy left-deep join order: start from the smallest estimated input."""
        tables = list(query.tables)
        if len(tables) == 1:
            only = tables[0]
            return only, [], 0.0, accesses[only].estimated_rows

        ordered = sorted(tables, key=lambda name: accesses[name].estimated_rows)
        driving_table = ordered[0]
        joined: set[str] = {driving_table}
        remaining = [name for name in ordered if name != driving_table]
        current_rows = accesses[driving_table].estimated_rows
        # The probe/outer stream of every join step prices at the driving
        # table's tier (matching the executor's cross-tier accounting).
        driving_data = facts[driving_table].data
        join_steps: list[JoinStep] = []
        total_join_cost = 0.0

        while remaining:
            # Prefer tables connected to the already-joined set (avoid cross joins).
            next_table = self._pick_next_table(query, joined, remaining)
            remaining.remove(next_table)
            step, step_cost, current_rows = self._best_join_step(
                query,
                estimator,
                cost_model,
                joined,
                current_rows,
                accesses[next_table],
                facts[next_table],
                indexes_by_table.get(next_table, ()),
                driving_data,
            )
            join_steps.append(step)
            total_join_cost += step_cost
            joined.add(next_table)
        return driving_table, join_steps, total_join_cost, current_rows

    @staticmethod
    def _pick_next_table(query: Query, joined: set[str], remaining: list[str]) -> str:
        """The first remaining table a join links to the joined set (else the first)."""
        shape = query.shape
        for table_name in remaining:
            for other_table, _, _ in shape[table_name].join_links:
                if other_table in joined:
                    return table_name
        return remaining[0]

    @staticmethod
    def _join_connection(
        query: Query, joined: set[str], inner_table: str
    ) -> tuple[str, str, str] | None:
        """Return ``(outer_table, outer_column, inner_column)`` linking the sets, if any.

        The first of the query's joins that links ``inner_table`` to the
        joined set wins.
        """
        for link in query.shape[inner_table].join_links:
            if link[0] in joined:
                return link
        return None

    def _best_join_step(
        self,
        query: Query,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        joined: set[str],
        outer_rows: float,
        inner_access: TableAccessPlan,
        inner_facts: _TableFacts,
        inner_indexes: Sequence[IndexDefinition],
        outer_data: TableData,
    ) -> tuple[JoinStep, float, float]:
        inner_table = inner_access.table
        inner_rows = inner_access.estimated_rows
        inner_data = inner_facts.data
        connection = self._join_connection(query, joined, inner_table)

        if connection is None:
            result_rows = max(1.0, outer_rows * inner_rows / max(1.0, inner_data.full_row_count))
        else:
            outer_table, outer_column, inner_column = connection
            result_rows = estimator.join_cardinality(
                outer_rows, outer_table, outer_column, inner_rows, inner_table, inner_column
            )

        # Option 1: hash join (build on the inner input, probe with the outer).
        hash_cost = cost_model.hash_join_seconds(
            int(inner_rows), int(outer_rows),
            build_data=inner_data, probe_data=outer_data,
        )
        hash_cost += inner_access.estimated_seconds
        best_step = JoinStep(
            inner_table=inner_table,
            method=JoinMethod.HASH_JOIN,
            estimated_outer_rows=outer_rows,
            estimated_result_rows=result_rows,
            estimated_seconds=hash_cost,
        )
        best_cost = hash_cost

        # Option 2: index nested loop, if an index leads with the join column.
        if connection is not None:
            _, _, inner_column = connection
            rows_per_probe: float | None = None
            for index in inner_indexes:
                if index.leading_column() != inner_column:
                    continue
                if rows_per_probe is None:
                    rows_per_probe = estimator.rows_per_join_key(inner_table, inner_column)
                covering = index.covers_columns(inner_facts.referenced_columns)
                inl_cost = cost_model.index_nested_loop_seconds(
                    outer_rows=int(outer_rows),
                    inner_index=index,
                    inner_data=inner_data,
                    rows_per_probe=rows_per_probe,
                    covering=covering,
                    outer_data=outer_data,
                )
                if inl_cost < best_cost:
                    best_cost = inl_cost
                    best_step = JoinStep(
                        inner_table=inner_table,
                        method=JoinMethod.INDEX_NESTED_LOOP,
                        index=index,
                        covering=covering,
                        estimated_outer_rows=outer_rows,
                        estimated_result_rows=result_rows,
                        estimated_seconds=inl_cost,
                    )
        return best_step, best_cost, result_rows
