"""Parity of the planner and executor with a reference copy of their plain form.

``Planner.plan`` is one pass over the query's tables: each table's
predicate estimates are read once and shared by its filtered cardinality
and every seek prefix, each join step finds its inner table and join link
in one scan, and only the winning access path and join method become plan
objects.  ``Executor.execute`` reads each base table's full-scan time once.
Both lean on memos: index geometry and selectivities on ``TableData``,
full-scan times on ``CostModel``.  The reference below re-derives every
figure per use, builds a plan object for every candidate, and runs on a
fresh snapshot of the database (new ``TableData`` objects, a new
``CostModel``), so no memo can reach it.  Random queries and configurations
are planned and executed by both, on the tiny database and on SSB and
TPC-DS workloads (TPC-DS brings four-table joins whose fact tables link to
several dimensions), with table growth and tier moves in the middle of the
run: a memo that outlived a change, or a tie broken differently, shows up
as a mismatch.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import (
    AccessMethod,
    Database,
    IndexDefinition,
    JoinMethod,
    JoinPredicate,
    Operator,
    Predicate,
    Query,
    TableData,
)
from repro.engine.cost_model import CostModel
from repro.engine.execution import ExecutionResult, Executor, TableAccessResult
from repro.engine.plans import JoinStep, QueryPlan, TableAccessPlan
from repro.engine.storage import BTREE_OVERHEAD, PAGE_SIZE_BYTES, ROW_POINTER_BYTES
from repro.optimizer import CardinalityEstimator, Planner
from repro.workloads import RandomWorkload, get_benchmark
from tests.conftest import build_tiny_schema, build_tiny_specs


# --------------------------------------------------------------------- #
# the reference: every figure derived per use, on a memo-free snapshot
# --------------------------------------------------------------------- #
@dataclass
class Snapshot:
    """Fresh copies of what the engine memoises on: table samples and the cost model."""

    tables: dict[str, TableData]
    cost_model: CostModel
    estimator: CardinalityEstimator

    @classmethod
    def of(cls, database: Database) -> "Snapshot":
        tables = {}
        for name in database.table_names:
            data = database.table_data(name)
            tables[name] = TableData(
                table=data.table,
                columns=data.columns,
                full_row_count=data.full_row_count,
                distinct_hints=dict(data.distinct_hints),
            )
        cost_model = CostModel(database.cost_model.profile, database.cost_model.table_profiles)
        return cls(tables, cost_model, CardinalityEstimator(database.statistics))


def reference_geometry(index: IndexDefinition, data: TableData) -> tuple[int, int, int, int]:
    """Entry width, size, leaf pages and depth, computed from scratch."""
    entry_width = data.width_of(index.key_columns + index.include_columns) + ROW_POINTER_BYTES
    size = int(entry_width * data.full_row_count * BTREE_OVERHEAD)
    leaf_pages = max(1, int(size / PAGE_SIZE_BYTES))
    entries_per_page = max(2, PAGE_SIZE_BYTES // max(1, entry_width))
    depth = 1
    pages = leaf_pages
    while pages > 1:
        pages = max(1, pages // entries_per_page)
        depth += 1
    return entry_width, size, leaf_pages, min(depth, 6)


def reference_plan(world: Snapshot, query: Query, configuration: list[IndexDefinition]) -> QueryPlan:
    indexes_by_table: dict[str, list[IndexDefinition]] = {}
    for index in configuration:
        indexes_by_table.setdefault(index.table, []).append(index)
    accesses = {
        name: reference_access(world, query, name, indexes_by_table.get(name, []))
        for name in query.tables
    }
    estimated_rows = {name: access.estimated_rows for name, access in accesses.items()}

    tables = list(query.tables)
    join_steps: list[JoinStep] = []
    join_cost = 0.0
    if len(tables) == 1:
        driving_table, result_rows = tables[0], estimated_rows[tables[0]]
    else:
        ordered = sorted(tables, key=lambda name: estimated_rows[name])
        driving_table = ordered[0]
        joined = {driving_table}
        remaining = [name for name in ordered if name != driving_table]
        result_rows = estimated_rows[driving_table]
        while remaining:
            next_table = remaining[0]
            for candidate in remaining:
                if any(
                    join.involves(candidate) and (join.left_table in joined or join.right_table in joined)
                    for join in query.joins
                ):
                    next_table = candidate
                    break
            remaining.remove(next_table)
            step, step_cost, result_rows = reference_join_step(
                world, query, joined, next_table, result_rows, accesses[next_table],
                indexes_by_table.get(next_table, []), world.tables[driving_table],
            )
            join_steps.append(step)
            join_cost += step_cost
            joined.add(next_table)

    base_cost = accesses[driving_table].estimated_seconds
    inl_tables = {step.inner_table for step in join_steps if step.method is JoinMethod.INDEX_NESTED_LOOP}
    for name in query.tables:
        if name != driving_table and name not in inl_tables:
            base_cost += accesses[name].estimated_seconds
    cost_model = world.cost_model
    total = (
        base_cost
        + join_cost
        + cost_model.aggregation_seconds(int(result_rows))
        + cost_model.profile.per_query_overhead_seconds
    )
    return QueryPlan(
        query=query, accesses=accesses, driving_table=driving_table,
        join_steps=join_steps, estimated_seconds=total,
    )


def reference_access(
    world: Snapshot, query: Query, table: str, indexes: list[IndexDefinition]
) -> TableAccessPlan:
    data = world.tables[table]
    cost_model = world.cost_model
    filtered_rows = world.estimator.filtered_cardinality(table, query.predicates_for(table))
    predicate_columns = set(query.predicate_columns_for(table))
    referenced = query.referenced_columns_for(table)
    best = TableAccessPlan(
        table=table, method=AccessMethod.FULL_SCAN, estimated_rows=filtered_rows,
        estimated_seconds=cost_model.full_scan_seconds(data),
    )
    for index in indexes:
        covering = all(column in set(index.all_columns) for column in referenced)
        prefix_length = index.seekable_prefix_length(predicate_columns)
        if prefix_length > 0:
            prefix_columns = set(index.key_columns[:prefix_length])
            prefix_predicates = tuple(p for p in query.predicates_for(table) if p.column in prefix_columns)
            matching = world.estimator.conjunctive_selectivity(prefix_predicates) * data.full_row_count
            candidate = TableAccessPlan(
                table=table, method=AccessMethod.INDEX_SEEK, index=index,
                seek_prefix_length=prefix_length, covering=covering, estimated_rows=filtered_rows,
                estimated_seconds=cost_model.index_seek_seconds(
                    index, data, int(max(1.0, matching)), covering=covering
                ),
            )
        elif covering:
            candidate = TableAccessPlan(
                table=table, method=AccessMethod.INDEX_ONLY_SCAN, index=index, covering=True,
                estimated_rows=filtered_rows,
                estimated_seconds=cost_model.index_only_scan_seconds(index, data),
            )
        else:
            continue
        if candidate.estimated_seconds < best.estimated_seconds:
            best = candidate
    return best


def reference_join_step(
    world: Snapshot,
    query: Query,
    joined: set[str],
    inner_table: str,
    outer_rows: float,
    inner_access: TableAccessPlan,
    inner_indexes: list[IndexDefinition],
    outer_data: TableData,
) -> tuple[JoinStep, float, float]:
    cost_model = world.cost_model
    inner_data = world.tables[inner_table]
    inner_rows = inner_access.estimated_rows
    connection = None
    for join in query.joins:
        if join.left_table == inner_table and join.right_table in joined:
            connection = (join.right_table, join.right_column, join.left_column)
            break
        if join.right_table == inner_table and join.left_table in joined:
            connection = (join.left_table, join.left_column, join.right_column)
            break
    if connection is None:
        result_rows = max(1.0, outer_rows * inner_rows / max(1.0, inner_data.full_row_count))
    else:
        outer_table, outer_column, inner_column = connection
        result_rows = world.estimator.join_cardinality(
            outer_rows, outer_table, outer_column, inner_rows, inner_table, inner_column
        )
    best_cost = cost_model.hash_join_seconds(
        int(inner_rows), int(outer_rows), build_data=inner_data, probe_data=outer_data
    )
    best_cost += inner_access.estimated_seconds
    best = JoinStep(
        inner_table=inner_table, method=JoinMethod.HASH_JOIN, estimated_outer_rows=outer_rows,
        estimated_result_rows=result_rows, estimated_seconds=best_cost,
    )
    if connection is not None:
        inner_column = connection[2]
        referenced = query.referenced_columns_for(inner_table)
        rows_per_probe = world.estimator.rows_per_join_key(inner_table, inner_column)
        for index in inner_indexes:
            if index.key_columns[0] != inner_column:
                continue
            covering = all(column in set(index.all_columns) for column in referenced)
            cost = cost_model.index_nested_loop_seconds(
                outer_rows=int(outer_rows), inner_index=index, inner_data=inner_data,
                rows_per_probe=rows_per_probe, covering=covering, outer_data=outer_data,
            )
            if cost < best_cost:
                best_cost = cost
                best = JoinStep(
                    inner_table=inner_table, method=JoinMethod.INDEX_NESTED_LOOP, index=index,
                    covering=covering, estimated_outer_rows=outer_rows,
                    estimated_result_rows=result_rows, estimated_seconds=cost,
                )
    return best, best_cost, result_rows


def reference_execute(world: Snapshot, plan: QueryPlan, noise: float) -> ExecutionResult:
    query = plan.query
    cost_model = world.cost_model
    results: list[TableAccessResult] = []
    rows: dict[str, int] = {}
    inl_tables = {step.inner_table for step in plan.join_steps if step.method is JoinMethod.INDEX_NESTED_LOOP}
    for table in query.tables:
        data = world.tables[table]
        true_rows = data.true_cardinality(query.predicates_for(table))
        rows[table] = true_rows
        if table in inl_tables:
            continue
        access = plan.access_for(table) or TableAccessPlan(table=table, method=AccessMethod.FULL_SCAN)
        if access.method is AccessMethod.FULL_SCAN or access.index is None:
            seconds = cost_model.full_scan_seconds(data)
        elif access.method is AccessMethod.INDEX_ONLY_SCAN:
            seconds = cost_model.index_only_scan_seconds(access.index, data)
        else:
            prefix_columns = set(access.index.key_columns[: access.seek_prefix_length])
            prefix_predicates = tuple(p for p in query.predicates_for(table) if p.column in prefix_columns)
            matching = data.true_cardinality(prefix_predicates) if prefix_predicates else data.full_row_count
            seconds = cost_model.index_seek_seconds(
                access.index, data, max(matching, true_rows), covering=access.covering
            )
        results.append(TableAccessResult(
            table=table, method=access.method.value,
            index_id=access.index.index_id if access.index else None, actual_seconds=seconds,
            full_scan_seconds=cost_model.full_scan_seconds(data), true_rows=true_rows,
        ))

    join_seconds = 0.0
    driving_data = world.tables[plan.driving_table or query.tables[0]]
    current_rows = rows.get(driving_data.table.name, 1)
    for step in plan.join_steps:
        inner_data = world.tables[step.inner_table]
        inner_rows = rows[step.inner_table]
        join_columns = query.join_columns_for(step.inner_table)
        if step.method is JoinMethod.HASH_JOIN:
            join_seconds += cost_model.hash_join_seconds(
                inner_rows, current_rows, build_data=inner_data, probe_data=driving_data
            )
        else:
            if join_columns:
                distinct = max(1, inner_data.distinct_count(join_columns[0]))
                rows_per_probe = max(inner_rows / distinct, inner_rows / max(1, inner_data.full_row_count))
            else:
                rows_per_probe = float(inner_rows)
            probe_seconds = cost_model.index_nested_loop_seconds(
                outer_rows=current_rows, inner_index=step.index, inner_data=inner_data,
                rows_per_probe=rows_per_probe, covering=step.covering, outer_data=driving_data,
            )
            results.append(TableAccessResult(
                table=step.inner_table, method="index_nested_loop_probe",
                index_id=step.index.index_id, actual_seconds=probe_seconds,
                full_scan_seconds=cost_model.full_scan_seconds(inner_data), true_rows=inner_rows,
            ))
        if join_columns:
            distinct = max(1, inner_data.distinct_count(join_columns[0]))
            current_rows = max(1, int(current_rows * inner_rows / distinct))
        else:
            current_rows = max(1, int(current_rows * inner_rows / max(1, inner_data.full_row_count)))

    total = (
        sum(result.actual_seconds for result in results)
        + join_seconds
        + cost_model.aggregation_seconds(current_rows)
        + cost_model.profile.per_query_overhead_seconds
    ) * noise
    return ExecutionResult(
        query_id=query.query_id, template_id=query.template_id, total_seconds=total,
        access_results=results, join_seconds=join_seconds,
        estimated_seconds=plan.estimated_seconds,
    )


# --------------------------------------------------------------------- #
# random queries and configurations
# --------------------------------------------------------------------- #
OPERATORS = list(Operator)


def random_predicate(rng: np.random.Generator, data: TableData, column: str) -> Predicate:
    values = data.column_array(column)
    pick = lambda: values[int(rng.integers(len(values)))].item()  # noqa: E731
    operator = OPERATORS[int(rng.integers(len(OPERATORS)))]
    if operator is Operator.BETWEEN:
        low, high = sorted((pick(), pick()))
        return Predicate(data.name, column, operator, (low, high))
    if operator is Operator.IN:
        return Predicate(data.name, column, operator, tuple(pick() for _ in range(int(rng.integers(1, 4)))))
    return Predicate(data.name, column, operator, pick())


def random_tiny_query(rng: np.random.Generator, database: Database, number: int) -> Query:
    shape = int(rng.integers(3))
    tables = (("sales",), ("customers",), ("sales", "customers"))[shape]
    joins = (JoinPredicate("sales", "customer_id", "customers", "customer_id"),) if shape == 2 else ()
    predicates, payload = [], {}
    for table in tables:
        data = database.table_data(table)
        columns = list(data.columns)
        for _ in range(int(rng.integers(0, 3))):
            predicates.append(random_predicate(rng, data, columns[int(rng.integers(len(columns)))]))
        payload[table] = tuple(rng.choice(columns, size=int(rng.integers(0, 3)), replace=False).tolist())
    return Query(f"rand#{number}", f"rand{shape}", tables, tuple(predicates), joins, payload)


def random_index(rng: np.random.Generator, database: Database, query: Query) -> IndexDefinition:
    """An index on one of the query's tables, keyed mostly on columns it touches."""
    table = query.tables[int(rng.integers(len(query.tables)))]
    referenced = list(query.referenced_columns_for(table)) or list(database.table_data(table).columns)
    others = [c for c in database.table_data(table).columns if c not in referenced]
    pool = referenced + others[: int(rng.integers(0, 2))]
    width = int(rng.integers(1, min(3, len(pool)) + 1))
    key = tuple(rng.choice(pool, size=width, replace=False).tolist())
    rest = [c for c in pool if c not in key]
    include = tuple(rest[: int(rng.integers(0, len(rest) + 1))])
    return IndexDefinition(table, key, include)


def tiny_database() -> Database:
    return Database.from_specs(
        schema=build_tiny_schema(), table_specs=build_tiny_specs(), sample_rows=600, seed=3,
    )


def benchmark_database(name: str) -> Database:
    return get_benchmark(name).create_database(scale_factor=0.1, sample_rows=300, seed=4)


def benchmark_queries(name: str, database: Database) -> list[Query]:
    rounds = RandomWorkload(database, get_benchmark(name).templates, n_rounds=6, seed=5).materialise()
    return [query for workload_round in rounds for query in workload_round.queries]


#: The table each benchmark grows mid-run, and the one it moves between tiers.
GROWN_AND_MOVED = {
    "tiny": ("sales", "customers"),
    "ssb": ("lineorder", "date_dim"),
    "tpcds": ("catalog_sales", "date_dim"),
}


def assert_matches(database: Database, planner: Planner, executor: Executor,
                   reference_rng: np.random.Generator, query: Query,
                   hypothetical: list[IndexDefinition]) -> None:
    world = Snapshot.of(database)
    for configuration in (hypothetical, database.materialised_indexes):
        plan = planner.plan(query, configuration)
        expected = reference_plan(world, query, configuration)
        assert plan.describe() == expected.describe()
        assert plan.estimated_seconds == expected.estimated_seconds
        assert plan == expected
    plan = planner.plan(query)
    result = executor.execute(plan)
    expected_result = reference_execute(
        world, reference_plan(world, query, database.materialised_indexes),
        float(reference_rng.lognormal(mean=0.0, sigma=executor.noise_sigma)),
    )
    assert result.total_seconds == expected_result.total_seconds
    assert result.access_results == expected_result.access_results
    assert result == expected_result
    for index in hypothetical + database.materialised_indexes:
        data = database.table_data(index.table)
        assert tuple(index.geometry(data)) == reference_geometry(index, data)


@pytest.mark.parametrize("database_name", ["tiny", "ssb", "tpcds"])
def test_plan_and_execute_match_the_reference_across_growth_and_tier_moves(database_name):
    rng = np.random.default_rng(17)
    if database_name == "tiny":
        database = tiny_database()
        queries = [random_tiny_query(rng, database, number) for number in range(90)]
    else:
        database = benchmark_database(database_name)
        queries = benchmark_queries(database_name, database)[:90]
    grown, moved = GROWN_AND_MOVED[database_name]
    planner = Planner(database)
    executor = Executor(database, noise_sigma=0.03, seed=5)
    reference_rng = np.random.default_rng(5)
    methods: set[str] = set()
    steps: set[JoinMethod] = set()
    for number, query in enumerate(queries):
        if number == 30:
            database.grow_table(grown, 1.7)
        elif number == 45:
            database.set_table_backend(moved, "inmemory")
        elif number == 60:
            database.grow_table(moved, 3.0)
            database.set_table_backend(moved, None)
        hypothetical = [random_index(rng, database, query) for _ in range(int(rng.integers(1, 5)))]
        if number % 5 == 0:
            database.apply_configuration(hypothetical[:2])
        assert_matches(database, planner, executor, reference_rng, query, hypothetical)
        plan = planner.plan(query, hypothetical)
        methods.update(access.method.value for access in plan.accesses.values())
        steps.update(step.method for step in plan.join_steps)
    # The run exercised every access path and both join methods.
    assert methods == {method.value for method in AccessMethod}
    assert steps == set(JoinMethod)


def test_unpickled_predicate_hits_the_selectivity_memo(monkeypatch):
    database = tiny_database()
    data = database.table_data("sales")
    predicates = (
        Predicate("sales", "day", Operator.BETWEEN, (10, 90)),
        Predicate("sales", "channel", Operator.IN, (1, 3)),
    )
    selectivity = data.true_selectivity(predicates)
    copies = pickle.loads(pickle.dumps(predicates))
    assert copies == predicates
    assert [hash(copy) for copy in copies] == [hash(predicate) for predicate in predicates]
    assert all(copy.operator is predicate.operator for copy, predicate in zip(copies, predicates))

    def unreachable(self, predicates):
        raise AssertionError("selectivity recomputed: the memo missed")

    monkeypatch.setattr(TableData, "selection_mask", unreachable)
    assert data.true_selectivity(copies) == selectivity
