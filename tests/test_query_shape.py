"""The per-template query shape and the engine caches that read it.

Every query carries one :class:`~repro.engine.query.TableShape` per table;
the instances of a template share one shape object.  The reference below is
the per-call derivation the query model used before it had a shape, so every
shape field is checked against it on random queries.  The second half checks
that planning after each catalog change (index create and drop, a whole
configuration, a tenant view, table growth) equals planning from scratch:
the catalog's per-table index grouping, the estimator's distinct-count memo
and the sample's value-range memo must never outlive a change.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArmGenerator, MabConfig, MabTuner
from repro.engine import Database, JoinPredicate, Operator, Predicate, Query
from repro.engine.execution import Executor
from repro.engine.indexes import IndexDefinition
from repro.optimizer import Planner
from repro.workloads import StaticWorkload, get_benchmark
from repro.workloads.templates import PredicateTemplate, QueryTemplate


# --------------------------------------------------------------------- #
# the reference: each table's structure derived from the query per call
# --------------------------------------------------------------------- #
def reference_predicates(query: Query, table: str) -> tuple[Predicate, ...]:
    return tuple(p for p in query.predicates if p.table == table)


def reference_join_columns(query: Query, table: str) -> tuple[str, ...]:
    columns: list[str] = []
    for join in query.joins:
        if join.left_table == table:
            column = join.left_column
        elif join.right_table == table:
            column = join.right_column
        else:
            continue
        if column not in columns:
            columns.append(column)
    return tuple(columns)


def reference_predicate_columns(query: Query, table: str) -> tuple[str, ...]:
    columns: list[str] = []
    for predicate in reference_predicates(query, table):
        if predicate.column not in columns:
            columns.append(predicate.column)
    return tuple(columns)


def reference_payload_columns(query: Query, table: str) -> tuple[str, ...]:
    return tuple(query.payload.get(table, ()))


def reference_referenced_columns(query: Query, table: str) -> tuple[str, ...]:
    columns: list[str] = []
    for group in (
        reference_predicate_columns(query, table),
        reference_join_columns(query, table),
        reference_payload_columns(query, table),
    ):
        for column in group:
            if column not in columns:
                columns.append(column)
    return tuple(columns)


def reference_join_connection(
    query: Query, joined: set[str], inner_table: str
) -> tuple[str, str, str] | None:
    for join in query.joins:
        if join.left_table == inner_table and join.right_table in joined:
            return join.right_table, join.right_column, join.left_column
        if join.right_table == inner_table and join.left_table in joined:
            return join.left_table, join.left_column, join.right_column
    return None


def assert_shape_matches_reference(query: Query) -> None:
    for table in (*query.tables, "absent"):
        assert query.predicates_for(table) == reference_predicates(query, table)
        assert query.predicate_columns_for(table) == reference_predicate_columns(query, table)
        assert query.join_columns_for(table) == reference_join_columns(query, table)
        assert query.payload_columns_for(table) == reference_payload_columns(query, table)
        assert query.referenced_columns_for(table) == reference_referenced_columns(query, table)
    assert list(query.shape) == list(dict.fromkeys(query.tables))
    for table, shape in query.shape.items():
        assert tuple(query.predicates[i] for i in shape.predicate_positions) == (
            reference_predicates(query, table)
        )
        assert shape.predicate_columns == reference_predicate_columns(query, table)
        assert shape.join_columns == reference_join_columns(query, table)
        assert shape.payload_columns == reference_payload_columns(query, table)
        assert shape.predicate_column_set == frozenset(reference_predicate_columns(query, table))
        assert shape.referenced_column_set == frozenset(reference_referenced_columns(query, table))
        # The join links answer the planner's join-connection question.
        others = [name for name in query.tables if name != table]
        for size in range(len(others) + 1):
            joined = set(others[:size])
            link = next((link for link in shape.join_links if link[0] in joined), None)
            assert link == reference_join_connection(query, joined, table)


TABLES = ("a", "b", "c", "d")
COLUMNS = ("x", "y", "z", "w")


@st.composite
def queries(draw: st.DrawFn) -> Query:
    """Random queries: repeated predicate columns, self-joins, unfiltered tables."""
    tables = tuple(draw(st.lists(st.sampled_from(TABLES), min_size=1, max_size=4, unique=True)))
    table = st.sampled_from(tables)
    column = st.sampled_from(COLUMNS)
    predicates = tuple(
        Predicate(name, col, Operator.EQ, value)
        for name, col, value in draw(
            st.lists(st.tuples(table, column, st.integers(0, 3)), max_size=6)
        )
    )
    joins = tuple(
        JoinPredicate(*parts)
        for parts in draw(st.lists(st.tuples(table, column, table, column), max_size=4))
    )
    payload = {
        name: tuple(draw(st.lists(column, max_size=3)))
        for name in draw(st.lists(table, max_size=len(tables), unique=True))
    }
    return Query("q#0", "q", tables, predicates, joins, payload)


@settings(max_examples=150, deadline=None)
@given(query=queries())
def test_shape_equals_the_per_call_derivation(query: Query) -> None:
    assert_shape_matches_reference(query)


def test_shape_rejects_tables_outside_the_from_list() -> None:
    with pytest.raises(ValueError, match="not in the FROM list"):
        Query("q#0", "q", ("a",), (Predicate("b", "x", Operator.EQ, 1),))
    with pytest.raises(ValueError, match="template bad: predicate on 'b'"):
        QueryTemplate("bad", ("a",), predicates=(PredicateTemplate("b", "x", Operator.EQ),))


@pytest.mark.parametrize(
    "tables", [("sales", "customers", "sales"), ("customers", "sales", "customers")]
)
def test_shape_rejects_a_from_list_that_names_a_table_twice(tables: tuple[str, ...]) -> None:
    # Repeated as a joined table or as the would-be driving table alike;
    # a self-join is a JoinPredicate from the table to itself.
    with pytest.raises(ValueError, match=f"query q#0: the FROM list names '{tables[0]}' more than once"):
        Query("q#0", "q", tables)
    with pytest.raises(ValueError, match=f"template bad: the FROM list names '{tables[0]}' more than once"):
        QueryTemplate("bad", tables)


# --------------------------------------------------------------------- #
# sharing, replace and pickling
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tpch_database() -> Database:
    return get_benchmark("tpch").create_database(scale_factor=0.1, sample_rows=300, seed=4)


@pytest.fixture(scope="module")
def tpch_queries(tpch_database: Database) -> list[Query]:
    templates = get_benchmark("tpch").templates
    rounds = StaticWorkload(tpch_database, templates, n_rounds=3, seed=2).materialise()
    return [query for workload_round in rounds for query in workload_round.queries]


def test_instances_of_a_template_share_one_shape(tpch_database: Database) -> None:
    template = get_benchmark("tpch").templates[4]
    rng = np.random.default_rng(0)
    first, second = (template.instantiate(tpch_database, rng) for _ in range(2))
    assert first.shape is second.shape is template.shape
    assert first.predicates != second.predicates or first.query_id != second.query_id
    # A re-read benchmark builds new template objects with the same shape.
    assert get_benchmark("tpch").templates[4].shape is template.shape
    assert_shape_matches_reference(first)


def test_template_instances_match_the_reference(tpch_queries: list[Query]) -> None:
    for query in tpch_queries:
        assert_shape_matches_reference(query)


def test_replace_derives_a_fresh_shape(tpch_queries: list[Query]) -> None:
    query = next(q for q in tpch_queries if len(q.tables) > 1 and q.predicates)
    moved = tuple(
        dataclasses.replace(predicate, table=query.tables[-1], column="moved")
        for predicate in query.predicates
    )
    replaced = dataclasses.replace(query, predicates=moved)
    assert replaced.shape is not query.shape
    assert_shape_matches_reference(replaced)
    assert_shape_matches_reference(query)
    assert replaced.predicate_columns_for(query.tables[-1])[0] == "moved"


def test_pickling_keeps_a_correct_shared_shape(tpch_queries: list[Query]) -> None:
    template_id = tpch_queries[0].template_id
    siblings = [q for q in tpch_queries if q.template_id == template_id]
    assert len(siblings) > 1
    restored = pickle.loads(pickle.dumps(siblings))
    assert restored == siblings
    assert all(query.shape is restored[0].shape for query in restored)
    assert restored[0].shape == siblings[0].shape
    for query in restored:
        assert_shape_matches_reference(query)


# --------------------------------------------------------------------- #
# planning after catalog changes equals planning from scratch
# --------------------------------------------------------------------- #
def build_tpch() -> Database:
    return get_benchmark("tpch").create_database(scale_factor=0.1, sample_rows=300, seed=4)


def candidate_indexes(queries: list[Query], count: int) -> list[IndexDefinition]:
    pool = ArmGenerator(MabConfig()).generate(queries)
    return [arm.index for arm in pool.values()][:count]


def assert_plans_as_fresh(
    planner: Planner,
    queries: list[Query],
    grow: tuple[str, float] | None = None,
) -> None:
    """``planner``'s plans and timings equal those of a database built from scratch."""
    database = planner.database
    fresh = build_tpch()
    if grow is not None:
        fresh.grow_table(*grow)
    fresh.apply_configuration(database.materialised_indexes)
    assert fresh.materialised_indexes == database.materialised_indexes
    fresh_planner = Planner(fresh)
    executor, fresh_executor = Executor(database, noise_sigma=0.0), Executor(fresh, noise_sigma=0.0)
    for query in queries:
        plan = planner.plan(query)
        assert plan == fresh_planner.plan(query)
        assert executor.execute(plan) == fresh_executor.execute(plan)


def test_plans_after_catalog_changes_equal_fresh_plans(tpch_queries: list[Query]) -> None:
    queries = tpch_queries[:22]
    indexes = candidate_indexes(queries, 40)
    database = build_tpch()
    planner = Planner(database)
    assert_plans_as_fresh(planner, queries)

    for index in indexes[:12]:
        database.create_index(index)
    assert_plans_as_fresh(planner, queries)

    for index in indexes[:12:3]:
        database.drop_index(index)
    assert_plans_as_fresh(planner, queries)

    database.apply_configuration(indexes[20:] + indexes[5:10])
    assert_plans_as_fresh(planner, queries)

    view = database.tenant_view()
    view_planner = Planner(view)
    assert_plans_as_fresh(view_planner, queries)
    view.apply_configuration(indexes[:8])
    assert_plans_as_fresh(view_planner, queries)
    # The view's catalog is its own: the database it came from plans as before.
    assert_plans_as_fresh(planner, queries)

    grown = database.table_data("lineitem")
    database.grow_table("lineitem", 1.7)
    assert database.table_data("lineitem") is not grown
    assert_plans_as_fresh(planner, queries, grow=("lineitem", 1.7))


def test_index_grouping_keeps_catalog_order(tpch_queries: list[Query]) -> None:
    """Ties in access-path choice go to the first index, so groups keep catalog order."""
    query = next(q for q in tpch_queries if q.predicates)
    predicate = query.predicates[0]
    table = predicate.table
    columns = [column.name for column in build_tpch().schema.table(table).columns]
    others = [name for name in columns if name != predicate.column][:3]
    twins = [IndexDefinition(table, (predicate.column,), (other,)) for other in others]
    for order in (twins, twins[::-1]):
        database = build_tpch()
        for index in order:
            database.create_index(index)
        database.drop_index(order[1])
        database.create_index(order[1])
        expected = [order[0], order[2], order[1]]
        assert list(database.materialised_indexes_by_table[table]) == expected
        assert_plans_as_fresh(Planner(database), [query])


def test_value_ranges_and_distinct_counts_follow_growth() -> None:
    database = build_tpch()
    planner = Planner(database)
    data = database.table_data("orders")
    for column in data.columns:
        values = data.column_array(column)
        assert data.value_range(column) == (float(values.min()), float(values.max()))
    estimator = planner.estimator
    before = estimator.distinct_count("orders", "o_orderkey")
    assert estimator.distinct_count("orders", "o_orderkey") == before
    rows_before = estimator.statistics.row_count("orders")
    database.grow_table("orders", 2.0)
    # The same estimator, never rebuilt, reads the grown table.
    assert planner.estimator is estimator
    assert estimator.statistics.row_count("orders") == 2 * rows_before
    assert estimator.distinct_count("orders", "o_orderkey") == 2 * before
    fresh = build_tpch()
    fresh.grow_table("orders", 2.0)
    fresh_estimator = Planner(fresh).estimator
    assert estimator.statistics.row_count("orders") == fresh_estimator.statistics.row_count(
        "orders"
    )
    assert estimator.distinct_count("orders", "o_orderkey") == (
        fresh_estimator.distinct_count("orders", "o_orderkey")
    )
    grown = database.table_data("orders")
    for column in grown.columns:
        assert grown.value_range(column) == data.value_range(column)


# --------------------------------------------------------------------- #
# each index size is read once a round
# --------------------------------------------------------------------- #
def test_apply_and_observe_read_no_index_size(
    tpch_queries: list[Query], monkeypatch: pytest.MonkeyPatch
) -> None:
    """The recommend pass reads every pool arm's size; apply and observe reuse them."""
    database = build_tpch()
    tuner = MabTuner(database)
    planner, executor = Planner(database), Executor(database)
    calls: list[str] = []
    size_of = Database.index_size_bytes

    def counting(self: Database, index: IndexDefinition) -> int:
        calls.append(index.index_id)
        return size_of(self, index)

    monkeypatch.setattr(Database, "index_size_bytes", counting)
    queries = tpch_queries[:22]
    built = 0
    for round_number in range(1, 4):
        calls.clear()
        recommendation = tuner.recommend(round_number)
        assert len(calls) == len(set(calls))
        calls.clear()
        change = database.apply_configuration(recommendation.configuration)
        results = [executor.execute(planner.plan(query)) for query in queries]
        tuner.observe(round_number, queries, results, change)
        assert calls == []
        built += len(change.created)
    assert built > 0
