"""Tests for cardinality estimation, plan selection and the what-if interface."""

import pytest

from repro.engine import (
    AccessMethod,
    IndexDefinition,
    JoinMethod,
    Operator,
    Predicate,
    Query,
)
from repro.optimizer import CardinalityEstimator, Planner, WhatIfOptimizer
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


def estimated_cost(what_if, queries, configuration):
    return sum(what_if.plan_query(query, configuration).estimated_seconds for query in queries)


class TestWhatIf:
    def test_index_benefit_positive_for_useful_index(self, tiny_database_readonly, sales_query):
        what_if = WhatIfOptimizer(tiny_database_readonly)
        useful = IndexDefinition("sales", ("day", "channel"), ("amount",))
        assert estimated_cost(what_if, [sales_query], [useful]) < estimated_cost(
            what_if, [sales_query], []
        )

    def test_index_benefit_zero_for_irrelevant_index(self, tiny_database_readonly, sales_query):
        what_if = WhatIfOptimizer(tiny_database_readonly)
        useless = IndexDefinition("customers", ("segment",))
        assert estimated_cost(what_if, [sales_query], [useless]) == pytest.approx(
            estimated_cost(what_if, [sales_query], []), abs=1e-6
        )

    def test_estimates_do_not_materialise_anything(self, tiny_database_readonly, sales_query):
        what_if = WhatIfOptimizer(tiny_database_readonly)
        what_if.plan_query(sales_query, [IndexDefinition("sales", ("day",))])
        assert tiny_database_readonly.materialised_indexes == []

    def test_call_counter_increments(self, tiny_database_readonly, sales_query):
        what_if = WhatIfOptimizer(tiny_database_readonly)
        before = what_if.calls
        estimated_cost(what_if, [sales_query, sales_query], [])
        assert what_if.calls == before + 2

    def test_configuration_benefit_monotone_for_nested_configs(
        self, tiny_database_readonly, sales_query, join_query
    ):
        what_if = WhatIfOptimizer(tiny_database_readonly)
        queries = [sales_query, join_query]
        single = [IndexDefinition("sales", ("day", "channel"), ("amount",))]
        double = single + [IndexDefinition("customers", ("region",), ("segment", "customer_id"))]
        assert estimated_cost(what_if, queries, double) <= estimated_cost(
            what_if, queries, single
        ) + 1e-9


class TestEstimatesFollowGrowth:
    """``grow_table`` replaces the statistics catalog; a planner (and the
    what-if interface built on one) created before the growth must estimate
    against the new row count, not the catalog it was constructed with."""

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
        what_if = WhatIfOptimizer(tiny_database)
        query = self.unfiltered_sales_query()
        tiny_database.grow_table("sales", 2.0)
        fresh = WhatIfOptimizer(tiny_database)
        assert (
            what_if.plan_query(query, []).estimated_seconds
            == fresh.plan_query(query, []).estimated_seconds
        )
