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

from typing import Mapping, Sequence

from repro.engine.catalog import Database
from repro.engine.indexes import IndexDefinition
from repro.engine.plans import AccessMethod, JoinMethod, JoinStep, QueryPlan, TableAccessPlan
from repro.engine.query import Query
from repro.engine.storage import TableData

from .cardinality import CardinalityEstimator, combine_selectivities


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
        predicate_selectivity = estimator.predicate_selectivity
        cost_model = database.cost_model
        shape = query.shape
        all_predicates = query.predicates

        # Access paths, one table at a time.  Each predicate's estimate is
        # read once; the filtered cardinality and every seek prefix multiply
        # them in predicate order, exactly as ``conjunctive_selectivity``
        # would.  Every comparison is a strict ``<``, so a tie keeps the full
        # scan or the first index in catalog order.
        table_data: dict[str, TableData] = {}
        accesses: dict[str, TableAccessPlan] = {}
        for name, table_shape in shape.items():
            data = table_data[name] = database.table_data(name)
            predicates = [all_predicates[position] for position in table_shape.predicate_positions]
            selectivities = [predicate_selectivity(predicate) for predicate in predicates]
            filtered_rows = estimator.cardinality_at(name, combine_selectivities(selectivities))
            method = AccessMethod.FULL_SCAN
            best_index: IndexDefinition | None = None
            best_prefix_length = 0
            best_covering = False
            best_seconds = cost_model.full_scan_seconds(data)
            predicate_columns = table_shape.predicate_column_set
            referenced = table_shape.referenced_column_set
            for index in indexes_by_table.get(name, ()):
                # A seek needs a predicate on the leading key column; without
                # one, only a covering index can stand in for the scan.
                if index.key_columns[0] in predicate_columns:
                    covering = index.covers_columns(referenced)
                    prefix_length = index.seekable_prefix_length(predicate_columns)
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
                    if seconds < best_seconds:
                        method = AccessMethod.INDEX_SEEK
                        best_index, best_prefix_length, best_covering = index, prefix_length, covering
                        best_seconds = seconds
                elif index.covers_columns(referenced):
                    seconds = cost_model.index_only_scan_seconds(index, data)
                    if seconds < best_seconds:
                        method = AccessMethod.INDEX_ONLY_SCAN
                        best_index, best_prefix_length, best_covering = index, 0, True
                        best_seconds = seconds
            accesses[name] = TableAccessPlan(
                table=name,
                method=method,
                index=best_index,
                seek_prefix_length=best_prefix_length,
                covering=best_covering,
                estimated_rows=filtered_rows,
                estimated_seconds=best_seconds,
            )

        # Greedy left-deep join order from the smallest estimated input (a
        # stable sort: equal estimates keep query order).  Each step joins
        # the first remaining table with a link into the joined set (else
        # the first remaining one, a cross join) through that table's first
        # such link in query order.  The probe/outer stream of every step
        # prices at the driving table's tier, matching the executor.
        ordered = sorted(query.tables, key=lambda name: accesses[name].estimated_rows)
        driving_table = ordered[0]
        driving_data = table_data[driving_table]
        joined = {driving_table}
        remaining = ordered[1:]
        current_rows = accesses[driving_table].estimated_rows
        join_steps: list[JoinStep] = []
        inl_tables: set[str] = set()
        join_cost = 0.0
        while remaining:
            inner_table = remaining[0]
            link: tuple[str, str, str] | None = None
            for name in remaining:
                for candidate in shape[name].join_links:
                    if candidate[0] in joined:
                        inner_table, link = name, candidate
                        break
                if link is not None:
                    break
            remaining.remove(inner_table)
            joined.add(inner_table)
            inner_access = accesses[inner_table]
            inner_rows = inner_access.estimated_rows
            inner_data = table_data[inner_table]
            if link is None:
                result_rows = max(
                    1.0, current_rows * inner_rows / max(1.0, inner_data.full_row_count)
                )
            else:
                outer_table, outer_column, inner_column = link
                result_rows = estimator.join_cardinality(
                    current_rows, outer_table, outer_column, inner_rows, inner_table, inner_column
                )

            # Hash join (build on the inner input, probe with the outer),
            # then an index nested loop through each index leading with the
            # join column.
            step_cost = cost_model.hash_join_seconds(
                int(inner_rows), int(current_rows),
                build_data=inner_data, probe_data=driving_data,
            )
            step_cost += inner_access.estimated_seconds
            step_index: IndexDefinition | None = None
            step_covering = False
            if link is not None:
                inner_column = link[2]
                referenced = shape[inner_table].referenced_column_set
                rows_per_probe: float | None = None
                for index in indexes_by_table.get(inner_table, ()):
                    if index.key_columns[0] != inner_column:
                        continue
                    if rows_per_probe is None:
                        rows_per_probe = estimator.rows_per_join_key(inner_table, inner_column)
                    covering = index.covers_columns(referenced)
                    inl_cost = cost_model.index_nested_loop_seconds(
                        outer_rows=int(current_rows),
                        inner_index=index,
                        inner_data=inner_data,
                        rows_per_probe=rows_per_probe,
                        covering=covering,
                        outer_data=driving_data,
                    )
                    if inl_cost < step_cost:
                        step_cost, step_index, step_covering = inl_cost, index, covering
            if step_index is not None:
                inl_tables.add(inner_table)
            join_steps.append(
                JoinStep(
                    inner_table=inner_table,
                    method=JoinMethod.HASH_JOIN if step_index is None else JoinMethod.INDEX_NESTED_LOOP,
                    index=step_index,
                    covering=step_covering,
                    estimated_outer_rows=current_rows,
                    estimated_result_rows=result_rows,
                    estimated_seconds=step_cost,
                )
            )
            join_cost += step_cost
            current_rows = result_rows

        # Base accesses sum in query order: the driving table, then every
        # hash-joined table (an index-nested-loop inner is priced in its step).
        base_cost = accesses[driving_table].estimated_seconds
        for name in query.tables:
            if name == driving_table or name in inl_tables:
                continue
            base_cost += accesses[name].estimated_seconds

        aggregation = cost_model.aggregation_seconds(int(current_rows))
        overhead = cost_model.profile.per_query_overhead_seconds
        total = base_cost + join_cost + aggregation + overhead
        return QueryPlan(
            query=query,
            accesses=accesses,
            driving_table=driving_table,
            join_steps=join_steps,
            estimated_seconds=total,
        )
