"""Tests for the execution simulator: timing, index usage and per-index gains."""

import pytest

from repro.engine import Executor, IndexDefinition
from repro.optimizer import Planner
from tests.conftest import make_join_query, make_sales_query


@pytest.fixture()
def planner(tiny_database):
    return Planner(tiny_database)


@pytest.fixture()
def executor(tiny_database):
    return Executor(tiny_database, noise_sigma=0.0)


class TestExecution:
    def test_full_scan_execution_reports_no_index_usage(self, tiny_database, planner, executor):
        result = executor.execute(planner.plan(make_sales_query()))
        assert result.total_seconds > 0
        assert result.indexes_used == set()
        access = result.access_for("sales")
        assert access is not None
        assert access.index_gain_seconds == 0.0

    def test_covering_index_reduces_time_and_reports_gain(self, tiny_database, planner, executor):
        query = make_sales_query()
        baseline = executor.execute(planner.plan(query)).total_seconds
        index = IndexDefinition("sales", ("day", "channel"), ("amount",))
        tiny_database.create_index(index)
        result = executor.execute(planner.plan(query))
        assert result.total_seconds < baseline
        assert index.index_id in result.indexes_used
        assert result.access_for("sales").index_gain_seconds > 0

    def test_join_query_execution(self, tiny_database, planner, executor):
        result = executor.execute(planner.plan(make_join_query()))
        assert result.total_seconds > 0
        assert {access.table for access in result.access_results} == {"sales", "customers"}

    def test_noise_zero_is_deterministic(self, tiny_database, planner):
        query = make_sales_query()
        first = Executor(tiny_database, noise_sigma=0.0).execute(planner.plan(query))
        second = Executor(tiny_database, noise_sigma=0.0).execute(planner.plan(query))
        assert first.total_seconds == pytest.approx(second.total_seconds)

    def test_noise_seed_reproducibility(self, tiny_database, planner):
        query = make_sales_query()
        plan = planner.plan(query)
        first = Executor(tiny_database, noise_sigma=0.1, seed=5).execute(plan)
        second = Executor(tiny_database, noise_sigma=0.1, seed=5).execute(plan)
        assert first.total_seconds == pytest.approx(second.total_seconds)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_invalid_noise_sigma_rejected(self, tiny_database, sigma):
        # NaN would make every execution time NaN; a negative sigma would
        # silently turn the noise off.
        with pytest.raises(ValueError, match="noise_sigma"):
            Executor(tiny_database, noise_sigma=sigma)

    def test_result_metadata(self, tiny_database, planner, executor):
        query = make_sales_query()
        result = executor.execute(planner.plan(query))
        assert result.query_id == query.query_id
        assert result.template_id == query.template_id
        assert result.estimated_seconds > 0

    def test_access_full_scan_reference_matches_cost_model(
        self, tiny_database, planner, executor
    ):
        result = executor.execute(planner.plan(make_sales_query()))
        access = result.access_for("sales")
        expected = tiny_database.cost_model.full_scan_seconds(tiny_database.table_data("sales"))
        assert access.full_scan_seconds == pytest.approx(expected)

    def test_misestimated_plan_can_regress(self, tiny_database, planner):
        """An index chosen on misestimates can make the query slower (negative gain)."""
        import numpy as np

        executor = Executor(tiny_database, noise_sigma=0.0)
        data = tiny_database.table_data("sales")
        values, counts = np.unique(data.column_array("product_id"), return_counts=True)
        heavy = int(values[counts.argmax()])
        from repro.engine import Operator, Predicate, Query

        query = Query(
            query_id="q_skew#0",
            template_id="q_skew",
            tables=("sales",),
            predicates=(Predicate("sales", "product_id", Operator.EQ, heavy),),
            payload={"sales": ("amount", "day", "channel")},
        )
        baseline = executor.execute(planner.plan(query, configuration=[])).total_seconds
        # A non-covering index on the (skewed) product_id column: the optimiser
        # thinks an equality predicate is highly selective and picks a seek,
        # but the heavy hitter matches a large fraction of the table.
        index = IndexDefinition("sales", ("product_id",))
        tiny_database.create_index(index)
        plan = planner.plan(query)
        if plan.accesses["sales"].index is None:
            pytest.skip("optimiser did not pick the index under this data seed")
        result = executor.execute(plan)
        assert result.access_for("sales").index_gain_seconds < 0
        assert result.total_seconds > baseline
