"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Arm, C2UCB, GreedyOracle, ScoredArm
from repro.engine import (
    Column,
    IndexDefinition,
    Operator,
    Predicate,
    Table,
    TableData,
    evaluate_predicate,
    pages_touched_by_random_fetches,
)
from repro.harness import speedup_percentage

# ----------------------------------------------------------------------- #
# predicate evaluation vs a straightforward ground truth
# ----------------------------------------------------------------------- #
values_strategy = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=80)


@given(values=values_strategy, literal=st.integers(-50, 50))
def test_equality_predicate_matches_ground_truth(values, literal):
    array = np.array(values)
    mask = evaluate_predicate(array, Predicate("t", "a", Operator.EQ, literal))
    assert mask.sum() == sum(1 for value in values if value == literal)


@given(values=values_strategy, low=st.integers(-50, 50), width=st.integers(0, 40))
def test_between_predicate_matches_ground_truth(values, low, width):
    high = low + width
    array = np.array(values)
    mask = evaluate_predicate(array, Predicate("t", "a", Operator.BETWEEN, (low, high)))
    assert mask.sum() == sum(1 for value in values if low <= value <= high)


@given(values=values_strategy, literal=st.integers(-50, 50))
def test_range_predicates_partition_the_rows(values, literal):
    array = np.array(values)
    below = evaluate_predicate(array, Predicate("t", "a", Operator.LT, literal)).sum()
    equal = evaluate_predicate(array, Predicate("t", "a", Operator.EQ, literal)).sum()
    above = evaluate_predicate(array, Predicate("t", "a", Operator.GT, literal)).sum()
    assert below + equal + above == len(values)


@given(values=values_strategy, literal=st.integers(-50, 50))
def test_true_selectivity_bounds_and_conjunction_monotonicity(values, literal):
    table = Table("t", [Column("a"), Column("b")])
    data = TableData(
        table=table,
        columns={"a": np.array(values), "b": np.array(values)},
        full_row_count=max(len(values), 1000),
    )
    single = (Predicate("t", "a", Operator.LE, literal),)
    double = single + (Predicate("t", "b", Operator.GE, -10),)
    single_selectivity = data.true_selectivity(single)
    double_selectivity = data.true_selectivity(double)
    assert 0 < single_selectivity <= 1
    assert 0 < double_selectivity <= 1
    # adding a conjunct can never increase true selectivity
    assert double_selectivity <= single_selectivity + 1e-12


# ----------------------------------------------------------------------- #
# cost-model approximations
# ----------------------------------------------------------------------- #
@given(rows=st.integers(0, 10_000_000), pages=st.integers(1, 1_000_000))
def test_pages_touched_bounded_and_nonnegative(rows, pages):
    touched = pages_touched_by_random_fetches(rows, pages)
    assert 0.0 <= touched <= pages
    assert touched <= rows or rows == 0 or touched <= pages


# ----------------------------------------------------------------------- #
# the bandit learner
# ----------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    dimension=st.integers(2, 8),
    n_updates=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_c2ucb_invariants(dimension, n_updates, seed):
    rng = np.random.default_rng(seed)
    bandit = C2UCB(dimension=dimension)
    for _ in range(n_updates):
        contexts = rng.normal(size=(3, dimension))
        rewards = rng.normal(size=3)
        bandit.update(contexts, rewards)
    # the scatter matrix stays symmetric positive definite
    scatter = bandit.scatter_matrix
    assert np.allclose(scatter, scatter.T)
    assert np.all(np.linalg.eigvalsh(scatter) > 0)
    # UCB scores always dominate the point estimates
    probe = rng.normal(size=(5, dimension))
    assert np.all(
        bandit.upper_confidence_scores(probe, alpha=0.7) >= bandit.expected_rewards(probe) - 1e-9
    )


# ----------------------------------------------------------------------- #
# the greedy oracle
# ----------------------------------------------------------------------- #
scored_arm_strategy = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2", "t3"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    ),
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(raw_arms=scored_arm_strategy, budget=st.integers(0, 1500))
def test_oracle_never_exceeds_budget_and_never_selects_negative(raw_arms, budget):
    scored_arms = []
    for position, (table, column, score, size) in enumerate(raw_arms):
        index = IndexDefinition(table, (column, f"extra_{position}"))
        arm = Arm(index=index, source_templates={f"template_{position}"})
        scored_arms.append(ScoredArm(arm=arm, score=score, size_bytes=size))
    result = GreedyOracle().select(scored_arms, memory_budget_bytes=budget)
    assert result.total_size_bytes <= budget
    assert all(selected.score > 0 for selected in result.selected)
    # no two selected arms on the same table share a leading column
    leading = [(s.arm.index.table, s.arm.index.leading_column()) for s in result.selected]
    assert len(leading) == len(set(leading))


def reference_select(scored_arms, memory_budget_bytes):
    """The oracle as it was with a list-scan prefix filter: (ids, size, score)."""
    candidates = sorted((s for s in scored_arms if s.score > 0), key=lambda s: s.score, reverse=True)
    remaining, selected, covered = memory_budget_bytes, [], set()
    while candidates:
        chosen = candidates.pop(0)
        if remaining is not None and chosen.size_bytes > remaining:
            continue
        selected.append(chosen)
        if remaining is not None:
            remaining -= chosen.size_bytes
        if chosen.arm.covering_for_queries:
            covered |= chosen.arm.source_templates
        candidates = [
            s for s in candidates
            if not (remaining is not None and s.size_bytes > remaining)
            and not any(
                s.arm.index.table == c.arm.index.table
                and s.arm.index.leading_column() == c.arm.index.leading_column()
                for c in selected
            )
            and not (covered and s.arm.source_templates and s.arm.source_templates <= covered)
        ]
    ids = [s.index_id for s in selected]
    return ids, sum(s.size_bytes for s in selected), sum(s.score for s in selected)


parity_arm_strategy = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2"]),
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
        st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.5]), st.floats(-5, 5, allow_nan=False)),
        st.integers(min_value=1, max_value=400),
        st.sets(st.sampled_from(["q1", "q2", "q3"]), max_size=2),
        st.booleans(),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(
    raw_arms=parity_arm_strategy,
    budget=st.one_of(st.none(), st.integers(0, 600), st.integers(5_000, 20_000)),
)
def test_oracle_set_prefix_filter_matches_the_list_scan(raw_arms, budget):
    scored_arms = []
    for table, key, score, size, templates, covering in raw_arms:
        arm = Arm(index=IndexDefinition(table, tuple(key)), source_templates=set(templates))
        if covering:
            arm.covering_for_queries = {"query#1"}
        scored_arms.append(ScoredArm(arm=arm, score=score, size_bytes=size))
    expected_ids, expected_size, expected_score = reference_select(scored_arms, budget)
    result = GreedyOracle().select(scored_arms, memory_budget_bytes=budget)
    assert [s.index_id for s in result.selected] == expected_ids
    assert result.total_size_bytes == expected_size
    assert result.total_score == expected_score


# ----------------------------------------------------------------------- #
# metrics
# ----------------------------------------------------------------------- #
@given(
    baseline=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    candidate=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_speedup_percentage_bounds(baseline, candidate):
    value = speedup_percentage(baseline, candidate)
    assert value <= 100.0
    if baseline > 0 and candidate <= baseline:
        assert 0.0 <= value <= 100.0


# ----------------------------------------------------------------------- #
# index definitions
# ----------------------------------------------------------------------- #
@given(
    columns=st.lists(
        st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5, unique=True
    )
)
def test_index_prefix_relation_is_reflexive_and_antisymmetric(columns):
    index = IndexDefinition("t", tuple(columns))
    assert index.is_prefix_of(index)
    if len(columns) > 1:
        narrow = IndexDefinition("t", tuple(columns[:-1]))
        assert narrow.is_prefix_of(index)
        assert not index.is_prefix_of(narrow)


@given(
    key=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
    prefix_length=st.integers(0, 5),
)
def test_index_key_prefix_never_longer_than_key(key, prefix_length):
    index = IndexDefinition("t", tuple(key))
    assert len(index.key_prefix(prefix_length)) <= len(key)
