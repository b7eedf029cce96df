"""Unit tests for the logical query model and optimiser-visible statistics."""

import pytest

from repro.engine import JoinPredicate, Operator, Predicate, Query
from repro.optimizer.cardinality import equality_selectivity, range_fraction
from tests.conftest import make_join_query, make_sales_query


class TestPredicate:
    def test_render(self):
        assert Predicate("t", "a", Operator.EQ, 5).render() == "t.a = 5"
        assert Predicate("t", "a", Operator.BETWEEN, (1, 2)).render() == "t.a BETWEEN 1 AND 2"
        assert Predicate("t", "a", Operator.IN, (1, 2)).render() == "t.a IN (1, 2)"

    def test_between_requires_pair(self):
        with pytest.raises(ValueError):
            Predicate("t", "a", Operator.BETWEEN, 5)

    def test_in_requires_tuple(self):
        with pytest.raises(ValueError):
            Predicate("t", "a", Operator.IN, 5)

    def test_unhashable_value_fails_at_construction(self):
        with pytest.raises(ValueError, match=r"t\.a"):
            Predicate("t", "a", Operator.EQ, [1, 2])
        with pytest.raises(ValueError, match="not hashable"):
            Predicate("t", "a", Operator.BETWEEN, ([1], 2))


class TestJoinPredicate:
    def test_involvement_and_column_lookup(self):
        join = JoinPredicate("a", "x", "b", "y")
        assert join.involves("a") and join.involves("b") and not join.involves("c")
        assert join.render() == "a.x = b.y"


class TestQuery:
    def test_column_helpers(self):
        query = make_join_query()
        assert query.predicate_columns_for("sales") == ("day",)
        assert query.join_columns_for("sales") == ("customer_id",)
        assert "amount" in query.payload_columns_for("sales")
        referenced = query.referenced_columns_for("sales")
        assert set(referenced) == {"day", "customer_id", "amount"}

    def test_predicate_on_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            Query(
                query_id="q",
                template_id="q",
                tables=("sales",),
                predicates=(Predicate("other", "a", Operator.EQ, 1),),
            )

    def test_join_on_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            Query(
                query_id="q",
                template_id="q",
                tables=("sales",),
                joins=(JoinPredicate("sales", "customer_id", "customers", "customer_id"),),
            )

    def test_payload_on_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            Query(
                query_id="q",
                template_id="q",
                tables=("sales",),
                payload={"customers": ("segment",)},
            )

    def test_render_sql_ish(self):
        sql = make_sales_query().render()
        assert sql.startswith("SELECT")
        assert "FROM sales" in sql
        assert "sales.day <=" in sql

    def test_render_without_payload_uses_count(self):
        query = Query(query_id="q", template_id="q", tables=("sales",))
        assert "COUNT(*)" in query.render()


class TestStatistics:
    def test_column_statistics_basics(self, tiny_database_readonly):
        statistics = tiny_database_readonly.statistics
        distinct_count = statistics.distinct_count("sales", "channel")
        assert distinct_count == 5
        assert equality_selectivity(distinct_count) == pytest.approx(0.2)
        assert statistics.value_range("sales", "channel") == (0, 4)

    def test_unique_column_statistics(self, tiny_database_readonly):
        statistics = tiny_database_readonly.statistics
        distinct_count = statistics.distinct_count("sales", "sale_id")
        assert distinct_count >= statistics.row_count("sales")
        assert equality_selectivity(distinct_count) < 1e-4

    def test_range_fraction_uniformity(self, tiny_database_readonly):
        value_range = tiny_database_readonly.statistics.value_range("sales", "day")
        low, high = value_range
        fraction = range_fraction(value_range, None, low + 0.25 * (high - low))
        assert 0.2 < fraction < 0.3

    def test_range_fraction_empty_range(self, tiny_database_readonly):
        value_range = tiny_database_readonly.statistics.value_range("sales", "day")
        assert range_fraction(value_range, 50, 10) == 0.0

    def test_table_statistics_and_catalog(self, tiny_database_readonly):
        statistics = tiny_database_readonly.statistics
        assert statistics.row_count("customers") == 5_000
        assert statistics.distinct_count("customers", "region") is not None
        assert statistics.value_range("customers", "region") is not None
        assert statistics.distinct_count("customers", "missing") is None
        assert statistics.value_range("customers", "missing") is None
        assert statistics.row_count("missing_table") == 0
        assert statistics.distinct_count("missing_table", "region") is None
        assert "sales" in tiny_database_readonly.table_names
