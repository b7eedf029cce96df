"""Tests for workload-driven arm generation and context engineering."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.core import Arm, ArmGenerator, ContextBuilder, MabConfig
from repro.engine import IndexDefinition, JoinPredicate, Operator, Predicate, Query
from repro.engine.query import _SHAPE_MEMO_SIZE
from tests.conftest import make_join_query, make_sales_query


class TestArmGeneration:
    def test_arms_only_for_tables_with_predicates(self):
        generator = ArmGenerator(MabConfig())
        arms = generator.generate([make_sales_query()])
        assert arms
        assert all(arm.table == "sales" for arm in arms.values())

    def test_single_and_multi_column_permutations(self):
        generator = ArmGenerator(MabConfig())
        arms = generator.generate([make_sales_query()])
        key_sets = {arm.index.key_columns for arm in arms.values()}
        assert ("day",) in key_sets
        assert ("channel",) in key_sets
        assert ("day", "channel") in key_sets
        assert ("channel", "day") in key_sets

    def test_covering_variants_included(self):
        generator = ArmGenerator(MabConfig())
        arms = generator.generate([make_sales_query()])
        covering = [arm for arm in arms.values() if arm.index.include_columns]
        assert covering
        assert any(arm.covering_for_queries for arm in covering)

    def test_covering_disabled(self):
        generator = ArmGenerator(MabConfig(include_covering_arms=False))
        arms = generator.generate([make_sales_query()])
        assert all(not arm.index.include_columns for arm in arms.values())

    def test_join_columns_produce_arms(self):
        generator = ArmGenerator(MabConfig())
        arms = generator.generate([make_join_query()])
        sales_keys = {arm.index.key_columns for arm in arms.values() if arm.table == "sales"}
        assert any("customer_id" in key for key in sales_keys)

    def test_width_cap_respected(self):
        generator = ArmGenerator(MabConfig(max_index_width=1))
        arms = generator.generate([make_sales_query()])
        assert all(len(arm.index.key_columns) == 1 for arm in arms.values())

    def test_per_query_table_budget_respected(self):
        config = MabConfig(max_arms_per_query_table=5)
        generator = ArmGenerator(config)
        arms = generator.generate([make_sales_query()])
        assert len(arms) <= 5

    def test_merge_across_queries_unions_templates(self):
        generator = ArmGenerator(MabConfig())
        first = make_sales_query("a#0", "template_a")
        second = make_sales_query("b#0", "template_b")
        arms = generator.generate([first, second])
        single_day = arms["ix_sales_day"]
        assert single_day.source_templates == {"template_a", "template_b"}

    def test_arm_counts_scale_with_benchmark(self, tpch_benchmark, tpch_small_database):
        """A full TPC-H round generates a rich (hundreds) but bounded arm space."""
        rng = np.random.default_rng(0)
        queries = [template.instantiate(tpch_small_database, rng) for template in tpch_benchmark.templates]
        arms = ArmGenerator(MabConfig()).generate(queries)
        assert 100 < len(arms) < 3000


class TestArmRegistry:
    """``generate`` merging a round's arms into the caller's registry in place."""

    def test_pool_holds_the_registry_objects(self):
        generator = ArmGenerator(MabConfig())
        registry: dict[str, Arm] = {}
        first = generator.generate([make_sales_query("s#1")], registry)
        assert first and list(first) == list(registry)
        assert all(registry[index_id] is arm for index_id, arm in first.items())
        second = generator.generate([make_join_query(), make_sales_query("s#2")], registry)
        assert all(registry[index_id] is arm for index_id, arm in second.items())
        assert all(second[index_id] is first[index_id] for index_id in second.keys() & first.keys())
        # Pool order is first-appearance order, as without a registry.
        assert list(second) == list(generator.generate([make_join_query(), make_sales_query("s#2")]))

    def test_known_arm_absent_this_round_keeps_its_covering_set(self):
        generator = ArmGenerator(MabConfig())
        registry: dict[str, Arm] = {}
        generator.generate([make_sales_query("s#1")], registry)
        before = {index_id: set(arm.covering_for_queries) for index_id, arm in registry.items()}
        pool = generator.generate([make_join_query()], registry)
        absent = [index_id for index_id in before if index_id not in pool]
        assert any(before[index_id] for index_id in absent)
        for index_id in absent:
            assert registry[index_id].covering_for_queries == before[index_id]
            assert registry[index_id].source_templates == {"q_sales"}

    def test_known_arm_present_gets_only_this_rounds_covering_set(self):
        generator = ArmGenerator(MabConfig())
        registry: dict[str, Arm] = {}
        generator.generate([make_sales_query("s#1", channel=None)], registry)
        assert registry["ix_sales_day(+amount)"].covering_for_queries == {"s#1"}
        second_round = [make_join_query(), make_sales_query("s#2")]
        pool = generator.generate(second_round, registry)
        fresh = generator.generate(second_round)
        assert list(pool) == list(fresh)
        for index_id, arm in pool.items():
            assert arm.covering_for_queries == fresh[index_id].covering_for_queries
        # Covering last round, present but covering nothing this round.
        assert pool["ix_sales_day(+amount)"].covering_for_queries == set()
        assert any(arm.covering_for_queries == {"s#2"} for arm in pool.values())
        # Templates accumulate across rounds.
        assert pool["ix_sales_day(+amount)"].source_templates == {"q_sales", "q_join"}
        assert pool["ix_sales_customer_id"].source_templates == {"q_join"}

    def test_without_a_registry_every_call_builds_new_arms(self):
        generator = ArmGenerator(MabConfig())
        queries = [make_sales_query(), make_join_query()]
        first, second = generator.generate(queries), generator.generate(queries)
        assert list(first) == list(second)
        assert not any(second[index_id] is arm for index_id, arm in first.items())


def reference_build(builder, arm, queries, database):
    """One context row as the per-arm builder computed it before the in-place matrix."""
    context = np.zeros(builder.dimension)
    workload_columns = {
        column
        for query in queries
        if arm.table in query.tables
        for column in query.predicate_columns_for(arm.table) + query.join_columns_for(arm.table)
    }
    for position, column in enumerate(arm.index.key_columns):
        slot = builder.column_position(arm.table, column)
        if slot is not None and column in workload_columns:
            context[slot] = 10.0 ** (-position)
    derived_base = builder.dimension - builder.derived_feature_count
    context[derived_base + 0] = 1.0 if arm.covering_for_queries else 0.0
    context[derived_base + 1] = (
        0.0
        if database.has_index(arm.index)
        else database.index_size_bytes(arm.index) / max(1, database.data_size_bytes)
    )
    context[derived_base + 2] = math.log1p(arm.usage_rounds)
    return context


class TestContextBuilder:
    @pytest.fixture()
    def builder(self, tiny_schema):
        return ContextBuilder(tiny_schema)

    def test_dimension_is_columns_plus_derived(self, builder, tiny_schema):
        n_columns = sum(len(table.columns) for table in tiny_schema.tables)
        assert builder.dimension == n_columns + 3
        assert builder.derived_feature_count == 3

    def test_prefix_encoding_values(self, builder, tiny_database_readonly):
        query = make_sales_query()
        arm = Arm(index=IndexDefinition("sales", ("day", "channel")), source_templates={"t"})
        context = builder.build(arm, [query], tiny_database_readonly)
        day_slot = builder.column_position("sales", "day")
        channel_slot = builder.column_position("sales", "channel")
        assert context[day_slot] == pytest.approx(1.0)
        assert context[channel_slot] == pytest.approx(0.1)

    def test_payload_only_column_is_zero(self, builder, tiny_database_readonly):
        query = make_sales_query()
        arm = Arm(index=IndexDefinition("sales", ("day", "amount")), source_templates={"t"})
        context = builder.build(arm, [query], tiny_database_readonly)
        amount_slot = builder.column_position("sales", "amount")
        assert context[amount_slot] == 0.0  # amount is only a payload column

    def test_non_workload_column_is_zero(self, builder, tiny_database_readonly):
        query = make_sales_query()
        arm = Arm(index=IndexDefinition("sales", ("product_id",)), source_templates={"t"})
        context = builder.build(arm, [query], tiny_database_readonly)
        slot = builder.column_position("sales", "product_id")
        assert context[slot] == 0.0

    def test_size_feature_zero_when_materialised(self, builder, tiny_database):
        query = make_sales_query()
        index = IndexDefinition("sales", ("day",))
        arm = Arm(index=index, source_templates={"t"})
        before = builder.build(arm, [query], tiny_database)
        assert before[builder.size_feature_index] > 0
        tiny_database.create_index(index)
        after = builder.build(arm, [query], tiny_database)
        assert after[builder.size_feature_index] == 0.0

    def test_covering_flag(self, builder, tiny_database_readonly):
        query = make_sales_query()
        covering_arm = Arm(
            index=IndexDefinition("sales", ("day", "channel"), ("amount",)),
            source_templates={"t"},
            covering_for_queries={query.query_id},
        )
        context = builder.build(covering_arm, [query], tiny_database_readonly)
        assert context[builder.covering_feature_index] == 1.0

    def test_usage_feature_increases(self, builder, tiny_database_readonly):
        query = make_sales_query()
        arm = Arm(index=IndexDefinition("sales", ("day",)), source_templates={"t"})
        cold = builder.build(arm, [query], tiny_database_readonly)
        arm.usage_rounds = 5
        warm = builder.build(arm, [query], tiny_database_readonly)
        assert warm[builder.usage_feature_index] > cold[builder.usage_feature_index]

    def test_build_matrix_shape(self, builder, tiny_database_readonly):
        query = make_sales_query()
        arms = list(ArmGenerator(MabConfig()).generate([query]).values())
        matrix = builder.build_matrix(arms, [query], tiny_database_readonly)
        assert matrix.shape == (len(arms), builder.dimension)

    def test_build_matrix_empty(self, builder, tiny_database_readonly):
        matrix = builder.build_matrix([], [], tiny_database_readonly)
        assert matrix.shape == (0, builder.dimension)

    def test_creation_context_only_size(self, builder, tiny_database_readonly):
        arm = Arm(index=IndexDefinition("sales", ("day",)), source_templates={"t"})
        context = builder.creation_context(arm, tiny_database_readonly)
        assert context[builder.size_feature_index] > 0
        context[builder.size_feature_index] = 0.0
        assert np.allclose(context, 0.0)

    def test_build_matrix_matches_the_per_arm_reference_bytes(self, builder, tiny_database):
        queries = [make_sales_query(), make_join_query()]
        arms = list(ArmGenerator(MabConfig()).generate(queries).values())
        # payload-only key columns and a column no query filters on
        arms.append(Arm(index=IndexDefinition("sales", ("amount", "day"))))
        arms.append(Arm(index=IndexDefinition("customers", ("segment",), ("region",))))
        for number, arm in enumerate(arms):
            arm.usage_rounds = number % 4
        materialised = [arm for arm in arms if arm.index.key_columns[0] == "day"][:2]
        for arm in materialised:
            tiny_database.create_index(arm.index)
        assert any(arm.covering_for_queries for arm in arms)
        assert any(not arm.covering_for_queries for arm in arms)
        assert materialised

        size_column = builder.size_feature_index
        grown = [arm for arm in arms if arm.table == "sales" and arm not in materialised]
        matrices = []
        for _ in range(2):
            matrix = builder.build_matrix(arms, queries, tiny_database)
            expected = np.vstack([reference_build(builder, arm, queries, tiny_database) for arm in arms])
            assert matrix.tobytes() == expected.tobytes()
            sizes = [tiny_database.index_size_bytes(arm.index) for arm in arms]
            assert builder.build_matrix(arms, queries, tiny_database, sizes).tobytes() == matrix.tobytes()
            for row, arm in zip(matrix, arms):
                single = builder.build_matrix([arm], queries, tiny_database)[0]
                assert builder.build(arm, queries, tiny_database).tobytes() == single.tobytes()
                assert single.tobytes() == row.tobytes()
            matrices.append(matrix)
            # The second pass reads the sizes of the grown table.
            tiny_database.grow_table("sales", 3.0)
        before, after = matrices
        assert grown
        for position, arm in enumerate(arms):
            if arm in grown:
                assert after[position, size_column] != before[position, size_column]


def reference_mask(builder, queries):
    """The workload mask as a set of (table, column) pairs built query by query."""
    columns = {
        (table, column)
        for query in queries
        for table in query.tables
        for column in query.predicate_columns_for(table) + query.join_columns_for(table)
    }
    mask = np.zeros(builder.dimension - builder.derived_feature_count + 1, dtype=bool)
    for table, column in columns:
        slot = builder.column_position(table, column)
        if slot is not None:
            mask[slot] = True
    return mask


class TestWorkloadMask:
    """The per-shape cached mask against the set-based reference."""

    @pytest.fixture()
    def builder(self, tiny_schema):
        return ContextBuilder(tiny_schema)

    def test_self_joins_columns_outside_the_schema_and_replaced_queries(self, builder):
        self_join = Query(
            "self#1", "self", ("sales",),
            (Predicate("sales", "amount", Operator.GE, 5),),
            (JoinPredicate("sales", "customer_id", "sales", "product_id"),),
        )
        outside = Query(
            "ghost#1", "ghost", ("sales", "ghosts"),
            (Predicate("sales", "ghost_column", Operator.EQ, 1),
             Predicate("ghosts", "anything", Operator.EQ, 2)),
            (JoinPredicate("sales", "channel", "ghosts", "channel"),),
        )
        sales = make_sales_query()
        replaced = dataclasses.replace(
            sales, predicates=(Predicate("sales", "product_id", Operator.EQ, 3),)
        )
        for queries in (
            [self_join], [outside], [sales], [replaced], [sales, replaced],
            [self_join, outside, make_join_query(), replaced], [],
        ):
            mask = builder._workload_mask(queries)
            assert mask.tolist() == reference_mask(builder, queries).tolist()
            assert not mask[-1]
        # A self-join's right column is not a join column of its shape.
        assert not builder._workload_mask([self_join])[builder.column_position("sales", "product_id")]
        assert builder._workload_mask([replaced])[builder.column_position("sales", "product_id")]
        assert not builder._workload_mask([replaced])[builder.column_position("sales", "day")]

    def test_more_shapes_than_the_cache_holds(self, builder):
        columns = ["sale_id", "customer_id", "product_id", "amount", "day", "channel", "nowhere"]
        subsets = [
            subset
            for width in (1, 2, 3)
            for subset in itertools.combinations(columns, width)
        ]
        queries = [
            Query(
                f"q{number}#1", f"q{number}", ("sales",),
                tuple(Predicate("sales", column, Operator.EQ, 1) for column in subsets[number % len(subsets)]),
            )
            for number in range(_SHAPE_MEMO_SIZE + 100)
        ]
        for start in range(0, len(queries), 7):
            chunk = queries[start:start + 7]
            assert builder._workload_mask(chunk).tolist() == reference_mask(builder, chunk).tolist()
        assert len(builder._shape_slots) == _SHAPE_MEMO_SIZE
        # The earliest shapes were evicted; asking again derives them afresh.
        for query in queries[:20]:
            assert builder._workload_mask([query]).tolist() == reference_mask(builder, [query]).tolist()
