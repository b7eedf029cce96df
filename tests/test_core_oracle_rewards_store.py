"""Tests for the greedy oracle, reward shaping and the query store."""

import numpy as np
import pytest

from repro.core import Arm, GreedyOracle, QueryStore, compute_round_rewards
from repro.core.oracle import score_order
from repro.engine import ConfigurationChange, ExecutionResult, IndexDefinition, TableAccessResult
from tests.conftest import make_sales_query


def scored(table: str, key: tuple[str, ...], score: float, size: int,
           templates: set[str] | None = None, covering: bool = False) -> tuple[Arm, float, int]:
    arm = Arm(index=IndexDefinition(table, key), source_templates=templates or {"t"})
    if covering:
        arm.covering_for_queries = {"q#1"}
    return arm, score, size


def select(entries: list[tuple[Arm, float, int]], budget: int | None) -> list[Arm]:
    """The arms the oracle selects from ``(arm, score, size)`` pool entries."""
    arms = [arm for arm, _, _ in entries]
    scores = np.array([score for _, score, _ in entries], dtype=float)
    sizes = [size for _, _, size in entries]
    result = GreedyOracle().select(score_order(scores).tolist(), arms, sizes, budget)
    return [arms[position] for position in result.selected]


class TestScoreOrder:
    def test_best_first_positive_only_ties_in_pool_order(self):
        scores = np.array([1.0, -2.0, 3.0, 0.0, 1.0, 3.0, np.nan])
        assert score_order(scores).tolist() == [2, 5, 0, 4]

    def test_empty(self):
        assert score_order(np.array([])).tolist() == []


class TestGreedyOracle:
    def test_prunes_negative_scores(self):
        assert select([scored("sales", ("day",), -1.0, 10)], None) == []

    def test_respects_memory_budget(self):
        arms = [
            scored("sales", ("day",), 3.0, 100),
            scored("customers", ("region",), 2.0, 100),
            scored("sales", ("channel",), 1.0, 100),
        ]
        selected = select(arms, 150)
        assert selected == [arms[0][0]]

    def test_greedy_order_by_score(self):
        arms = [
            scored("sales", ("day",), 1.0, 10),
            scored("customers", ("region",), 5.0, 10),
        ]
        assert select(arms, None)[0] is arms[1][0]

    def test_same_leading_column_filtered_within_round(self):
        arms = [
            scored("sales", ("day", "channel"), 5.0, 10),
            scored("sales", ("day",), 4.0, 10),
            scored("sales", ("channel",), 3.0, 10),
        ]
        keys = {arm.index.key_columns for arm in select(arms, None)}
        assert ("day", "channel") in keys
        assert ("day",) not in keys  # same table and leading column as the selected arm
        assert ("channel",) in keys

    def test_covering_index_filters_other_arms_of_same_template(self):
        covering = scored("sales", ("day",), 5.0, 10, templates={"t1"}, covering=True)
        other_same_template = scored("sales", ("channel",), 4.0, 10, templates={"t1"})
        other_template = scored("customers", ("region",), 3.0, 10, templates={"t2"})
        ids = {arm.index_id for arm in select([covering, other_same_template, other_template], None)}
        assert covering[0].index_id in ids
        assert other_same_template[0].index_id not in ids
        assert other_template[0].index_id in ids

    def test_skips_too_large_arm_but_considers_smaller(self):
        arms = [
            scored("sales", ("day",), 5.0, 1000),
            scored("customers", ("region",), 1.0, 50),
        ]
        assert [arm.table for arm in select(arms, 100)] == ["customers"]

    def test_stops_once_nothing_ahead_fits(self):
        arms = [
            scored("sales", ("day",), 5.0, 60),
            scored("customers", ("region",), 4.0, 50),
            scored("sales", ("channel",), 3.0, 30),
            scored("customers", ("segment",), 2.0, 10),
        ]
        # 60 + 30 fill 90 of 100; the 10-byte arm still fits after that.
        assert [arm.index_id for arm in select(arms, 100)] == [
            "ix_sales_day", "ix_sales_channel", "ix_customers_segment",
        ]
        visited = []

        class Recording(list):
            def __getitem__(self, position):
                visited.append(position)
                return list.__getitem__(self, position)

        sizes = Recording(size for _, _, size in arms)
        pool = [arm for arm, _, _ in arms]
        result = GreedyOracle().select([0, 1, 2, 3], pool, sizes, 65)
        assert result.selected == [0]
        # After the first pick 5 bytes remain, below every size ahead: the
        # pass ends without visiting another candidate.
        assert visited == [0]

    def test_unbudgeted_selection_takes_all_positive_diverse_arms(self):
        arms = [
            scored("sales", ("day",), 2.0, 10),
            scored("customers", ("region",), 1.0, 10),
        ]
        assert len(select(arms, None)) == 2

    def test_empty_input(self):
        assert GreedyOracle().select([], [], [], 100).selected == []


def execution_result_with_access(index_id, gain, full_scan=10.0, query="q#1", template="q"):
    actual = full_scan - gain
    return ExecutionResult(
        query_id=query,
        template_id=template,
        total_seconds=actual,
        access_results=[
            TableAccessResult(
                table="sales",
                method="index_seek",
                index_id=index_id,
                actual_seconds=actual,
                full_scan_seconds=full_scan,
                true_rows=100,
            )
        ],
    )


class TestRewards:
    def test_gain_summed_across_queries(self):
        results = [
            execution_result_with_access("ix_a", 4.0, query="q#1"),
            execution_result_with_access("ix_a", 3.0, query="q#2"),
        ]
        rewards = compute_round_rewards(results, ConfigurationChange())
        assert rewards.reward_for("ix_a") == pytest.approx(7.0)
        assert rewards.used_index_ids == {"ix_a"}

    def test_creation_cost_charged_once(self):
        results = [execution_result_with_access("ix_a", 4.0)]
        change = ConfigurationChange(creation_seconds_by_index={"ix_a": 10.0})
        rewards = compute_round_rewards(results, change)
        assert rewards.reward_for("ix_a") == pytest.approx(-6.0)

    def test_unused_created_index_gets_pure_penalty(self):
        change = ConfigurationChange(creation_seconds_by_index={"ix_b": 5.0})
        rewards = compute_round_rewards([], change)
        assert rewards.reward_for("ix_b") == pytest.approx(-5.0)
        assert rewards.reward_for("ix_unknown") == 0.0

    def test_negative_gain_regression(self):
        results = [execution_result_with_access("ix_a", -3.0)]
        rewards = compute_round_rewards(results, ConfigurationChange())
        assert rewards.reward_for("ix_a") == pytest.approx(-3.0)

    def test_creation_cost_weight(self):
        change = ConfigurationChange(creation_seconds_by_index={"ix_a": 10.0})
        rewards = compute_round_rewards([], change, creation_cost_weight=0.5)
        assert rewards.reward_for("ix_a") == pytest.approx(-5.0)


class TestQueryStore:
    def test_add_round_tracks_templates(self):
        store = QueryStore()
        summary = store.add_round([make_sales_query("a#1", "a"), make_sales_query("b#1", "b")], 1)
        assert summary.new_templates == 2
        assert summary.shift_intensity == 1.0
        assert len(store) == 2

    def test_shift_intensity_with_known_templates(self):
        store = QueryStore()
        store.add_round([make_sales_query("a#1", "a")], 1)
        summary = store.add_round([make_sales_query("a#2", "a"), make_sales_query("b#1", "b")], 2)
        assert summary.known_templates == 1
        assert summary.new_templates == 1
        assert summary.shift_intensity == pytest.approx(0.5)

    def test_queries_of_interest_window(self):
        store = QueryStore()
        store.add_round([make_sales_query("a#1", "a")], 1)
        store.add_round([make_sales_query("b#1", "b")], 5)
        recent = store.queries_of_interest(current_round=6, window_rounds=2)
        assert [query.template_id for query in recent] == ["b"]
        wide = store.queries_of_interest(current_round=6, window_rounds=10)
        assert {query.template_id for query in wide} == {"a", "b"}

    def test_queries_of_interest_window_spans_completed_rounds(self):
        """``window_rounds=N`` covers the last N *completed* rounds.

        Regression test for an off-by-one: recommending for round 4 with a
        window of 2 must include templates last seen in rounds 2 and 3, not
        just round 3.
        """
        store = QueryStore()
        store.add_round([make_sales_query("a#1", "a")], 1)
        store.add_round([make_sales_query("b#1", "b")], 2)
        store.add_round([make_sales_query("c#1", "c")], 3)
        window_two = store.queries_of_interest(current_round=4, window_rounds=2)
        assert {query.template_id for query in window_two} == {"b", "c"}
        window_one = store.queries_of_interest(current_round=4, window_rounds=1)
        assert {query.template_id for query in window_one} == {"c"}

    def test_latest_instance_returned(self):
        store = QueryStore()
        store.add_round([make_sales_query("a#1", "a")], 1)
        newest = make_sales_query("a#2", "a")
        store.add_round([newest], 2)
        assert store.queries_of_interest(3)[0].query_id == newest.query_id

    def test_instance_history_bounded(self):
        """A template keeps only its latest instance, within a round too."""
        store = QueryStore()
        for round_number in range(1, 6):
            summary = store.add_round(
                [make_sales_query(f"a#{round_number}.{i}", "a") for i in range(3)], round_number
            )
        assert summary.known_templates == 1 and summary.new_templates == 0
        assert len(store) == 1
        assert [query.query_id for query in store.queries_of_interest(6)] == ["a#5.2"]

    def test_clear(self):
        store = QueryStore()
        store.add_round([make_sales_query()], 1)
        store.clear()
        assert len(store) == 0
