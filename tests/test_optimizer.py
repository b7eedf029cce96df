"""Tests for cardinality estimation, plan selection and the what-if interface."""

import pytest

from repro.engine import (
    AccessMethod,
    IndexDefinition,
    JoinMethod,
    JoinPredicate,
    Operator,
    Predicate,
    Query,
)
from repro.optimizer import CardinalityEstimator, Planner
from tests.conftest import make_sales_query


@pytest.fixture()
def estimator(tiny_database_readonly) -> CardinalityEstimator:
    return CardinalityEstimator(tiny_database_readonly.statistics)


class TestCardinalityEstimator:
    def test_equality_selectivity_uses_distinct_count(self, estimator):
        predicate = Predicate("sales", "channel", Operator.EQ, 2)
        assert estimator.predicate_selectivity(predicate) == pytest.approx(0.2)

    def test_range_selectivity_uniformity(self, estimator):
        predicate = Predicate("sales", "day", Operator.LE, 90)
        assert 0.2 < estimator.predicate_selectivity(predicate) < 0.3

    def test_in_list_selectivity(self, estimator):
        predicate = Predicate("sales", "channel", Operator.IN, (0, 1))
        assert estimator.predicate_selectivity(predicate) == pytest.approx(0.4)

    def test_unknown_column_gets_default(self, estimator):
        predicate = Predicate("sales", "nonexistent", Operator.EQ, 1)
        assert estimator.predicate_selectivity(predicate) == pytest.approx(0.1)

    def test_avi_multiplies_selectivities(self, estimator):
        predicates = (
            Predicate("sales", "channel", Operator.EQ, 1),
            Predicate("sales", "day", Operator.LE, 36),
        )
        combined = estimator.conjunctive_selectivity(predicates)
        assert combined == pytest.approx(0.2 * estimator.predicate_selectivity(predicates[1]))

    def test_avi_misestimates_skewed_equality(self, tiny_database_readonly, estimator):
        """The optimiser estimate diverges from the truth on skewed columns."""
        data = tiny_database_readonly.table_data("customers")
        heavy_value = int(data.column_array("segment")[0])  # probably the heavy hitter
        # Find the actual heavy hitter to make the test deterministic.
        import numpy as np

        values, counts = np.unique(data.column_array("segment"), return_counts=True)
        heavy_value = int(values[counts.argmax()])
        predicate = Predicate("customers", "segment", Operator.EQ, heavy_value)
        estimated = estimator.predicate_selectivity(predicate)
        true = data.true_selectivity((predicate,))
        assert true > 3 * estimated  # zipf(2) over 5 values: truth is far above 1/5

    def test_join_cardinality_containment(self, estimator):
        size = estimator.join_cardinality(
            1_000, "sales", "customer_id", 5_000, "customers", "customer_id"
        )
        assert size == pytest.approx(1_000.0)

    def test_table_cardinality(self, estimator):
        query = make_sales_query(channel=None, day_high=364)
        assert estimator.filtered_cardinality("sales", query.predicates_for("sales")) > 100_000


class TestPlanner:
    def test_full_scan_without_indexes(self, tiny_database_readonly, sales_query):
        plan = Planner(tiny_database_readonly).plan(sales_query, configuration=[])
        assert plan.accesses["sales"].method is AccessMethod.FULL_SCAN
        assert plan.estimated_seconds > 0

    def test_covering_index_seek_chosen_when_selective(self, tiny_database_readonly, sales_query):
        index = IndexDefinition("sales", ("day", "channel"), ("amount",))
        plan = Planner(tiny_database_readonly).plan(sales_query, configuration=[index])
        access = plan.accesses["sales"]
        assert access.method is AccessMethod.INDEX_SEEK
        assert access.covering
        assert access.index == index
        assert plan.indexes_used == [index]

    def test_irrelevant_index_ignored(self, tiny_database_readonly, sales_query):
        index = IndexDefinition("sales", ("product_id",))
        plan = Planner(tiny_database_readonly).plan(sales_query, configuration=[index])
        assert plan.accesses["sales"].method is AccessMethod.FULL_SCAN

    def test_join_plan_structure(self, tiny_database_readonly, join_query):
        plan = Planner(tiny_database_readonly).plan(join_query, configuration=[])
        assert plan.driving_table in ("sales", "customers")
        assert len(plan.join_steps) == 1
        assert plan.join_steps[0].method in (JoinMethod.HASH_JOIN, JoinMethod.INDEX_NESTED_LOOP)
        assert "HashJoin" in plan.describe() or "IndexNestedLoop" in plan.describe()

    def test_index_nested_loop_possible_with_join_index(self, tiny_database_readonly, join_query):
        join_index = IndexDefinition("sales", ("customer_id",), ("amount", "day"))
        plan = Planner(tiny_database_readonly).plan(join_query, configuration=[join_index])
        methods = {step.method for step in plan.join_steps}
        # with a covering index on the join key, INL should at least be considered;
        # the plan must remain valid either way
        assert methods <= {JoinMethod.HASH_JOIN, JoinMethod.INDEX_NESTED_LOOP}

    def test_plan_estimate_positive_and_finite(self, tiny_database_readonly, join_query):
        plan = Planner(tiny_database_readonly).plan(join_query)
        assert 0 < plan.estimated_seconds < 1e9


def estimated_cost(planner, queries, configuration):
    return sum(
        planner.plan(query, configuration=configuration).estimated_seconds for query in queries
    )


class TestWhatIf:
    """The what-if interface: ``Planner.plan`` under a hypothetical configuration."""

    def test_index_benefit_positive_for_useful_index(self, tiny_database_readonly, sales_query):
        planner = Planner(tiny_database_readonly)
        useful = IndexDefinition("sales", ("day", "channel"), ("amount",))
        assert estimated_cost(planner, [sales_query], [useful]) < estimated_cost(
            planner, [sales_query], []
        )

    def test_index_benefit_zero_for_irrelevant_index(self, tiny_database_readonly, sales_query):
        planner = Planner(tiny_database_readonly)
        useless = IndexDefinition("customers", ("segment",))
        assert estimated_cost(planner, [sales_query], [useless]) == pytest.approx(
            estimated_cost(planner, [sales_query], []), abs=1e-6
        )

    def test_estimates_do_not_materialise_anything(self, tiny_database_readonly, sales_query):
        planner = Planner(tiny_database_readonly)
        planner.plan(sales_query, configuration=[IndexDefinition("sales", ("day",))])
        assert tiny_database_readonly.materialised_indexes == []

    def test_configuration_benefit_monotone_for_nested_configs(
        self, tiny_database_readonly, sales_query, join_query
    ):
        planner = Planner(tiny_database_readonly)
        queries = [sales_query, join_query]
        single = [IndexDefinition("sales", ("day", "channel"), ("amount",))]
        double = single + [IndexDefinition("customers", ("region",), ("segment", "customer_id"))]
        assert estimated_cost(planner, queries, double) <= estimated_cost(
            planner, queries, single
        ) + 1e-9


class TestEstimatesFollowGrowth:
    """``grow_table`` replaces the statistics catalog; a planner created
    before the growth must estimate against the new row count, not the
    catalog it was constructed with, with or without a what-if
    configuration."""

    @staticmethod
    def unfiltered_sales_query():
        return Query(query_id="q_all#0", template_id="q_all", tables=("sales",))

    def test_planner_estimates_the_grown_row_count(self, tiny_database):
        planner = Planner(tiny_database)
        query = self.unfiltered_sales_query()
        before = planner.plan(query).accesses["sales"].estimated_rows
        tiny_database.grow_table("sales", 2.0)
        after = planner.plan(query).accesses["sales"].estimated_rows
        assert after == tiny_database.statistics.row_count("sales") == 2 * before

    def test_what_if_costs_the_grown_table(self, tiny_database):
        planner = Planner(tiny_database)
        query = self.unfiltered_sales_query()
        tiny_database.grow_table("sales", 2.0)
        fresh = Planner(tiny_database)
        assert (
            planner.plan(query, configuration=[]).estimated_seconds
            == fresh.plan(query, configuration=[]).estimated_seconds
        )


class TestTieRules:
    """Which plan wins when costs or estimates are equal.

    Every comparison in the planner is a strict ``<``, so a tie keeps the
    first candidate: the first index in catalog order, the first join in
    query order, and the first table in ``query.tables`` order.
    """

    FIRST = IndexDefinition("customers", ("customer_id", "region"))
    SECOND = IndexDefinition("customers", ("customer_id", "segment"))

    @staticmethod
    def customer_lookup() -> Query:
        # Both indexes seek on customer_id and neither covers the payload.
        return Query(
            query_id="q_lookup#0",
            template_id="q_lookup",
            tables=("customers",),
            predicates=(Predicate("customers", "customer_id", Operator.EQ, 7),),
            payload={"customers": ("region", "segment")},
        )

    @pytest.mark.parametrize("order", ["first_then_second", "second_then_first"])
    def test_equal_cost_seeks_use_the_first_index_in_catalog_order(self, tiny_database, order):
        created = [self.FIRST, self.SECOND]
        if order == "second_then_first":
            created.reverse()
        query = self.customer_lookup()
        planner = Planner(tiny_database)
        first_cost = planner.plan(query, [self.FIRST]).estimated_seconds
        assert planner.plan(query, [self.SECOND]).estimated_seconds == first_cost
        for index in created:
            tiny_database.create_index(index)
        plan = planner.plan(query)
        access = plan.accesses["customers"]
        assert access.method is AccessMethod.INDEX_SEEK
        assert not access.covering
        assert access.index == created[0]
        assert plan.estimated_seconds == first_cost
        assert planner.plan(query, created).accesses["customers"].index == created[0]

    @pytest.mark.parametrize("first_join", ["customer_id", "channel"])
    def test_a_table_linked_by_two_joins_uses_the_first_in_query_order(
        self, tiny_database_readonly, first_join
    ):
        by_key = JoinPredicate("customers", "customer_id", "sales", "customer_id")
        by_channel = JoinPredicate("customers", "region", "sales", "channel")
        joins = (by_key, by_channel) if first_join == "customer_id" else (by_channel, by_key)
        query = Query(
            query_id="q_two_links#0",
            template_id="q_two_links",
            tables=("sales", "customers"),
            # One customer drives; sales is joined into it.
            predicates=(Predicate("customers", "customer_id", Operator.EQ, 7),),
            joins=joins,
            payload={"sales": ("amount",)},
        )
        probe_index = IndexDefinition("sales", ("customer_id",), ("amount", "channel"))
        planner = Planner(tiny_database_readonly)
        plan = planner.plan(query, [probe_index])
        assert plan.driving_table == "customers"
        (step,) = plan.join_steps
        assert step.inner_table == "sales"
        outer_column, inner_column = (
            ("customer_id", "customer_id") if first_join == "customer_id" else ("region", "channel")
        )
        expected_rows = planner.estimator.join_cardinality(
            plan.accesses["customers"].estimated_rows, "customers", outer_column,
            plan.accesses["sales"].estimated_rows, "sales", inner_column,
        )
        assert step.estimated_result_rows == expected_rows
        # Only the customer_id link can probe the index leading with customer_id.
        if first_join == "customer_id":
            assert step.method is JoinMethod.INDEX_NESTED_LOOP
            assert step.index == probe_index
        else:
            assert step.method is JoinMethod.HASH_JOIN

    @pytest.mark.parametrize("tables", [("sales", "customers"), ("customers", "sales")])
    def test_equal_estimated_rows_drive_from_the_first_table_in_query_order(
        self, tiny_database_readonly, tables
    ):
        # Both filters estimate below one row, which clamps to exactly one.
        query = Query(
            query_id="q_equal_rows#0",
            template_id="q_equal_rows",
            tables=tables,
            predicates=(
                Predicate("sales", "sale_id", Operator.EQ, 5),
                Predicate("sales", "channel", Operator.EQ, 1),
                Predicate("customers", "customer_id", Operator.EQ, 5),
                Predicate("customers", "region", Operator.EQ, 1),
            ),
            joins=(JoinPredicate("sales", "customer_id", "customers", "customer_id"),),
        )
        plan = Planner(tiny_database_readonly).plan(query, configuration=[])
        assert plan.accesses["sales"].estimated_rows == 1.0
        assert plan.accesses["customers"].estimated_rows == 1.0
        assert plan.driving_table == tables[0]
        assert [step.inner_table for step in plan.join_steps] == [tables[1]]
