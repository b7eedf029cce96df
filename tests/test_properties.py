"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Arm, ArmGenerator, C2UCB, GreedyOracle, MabConfig, MabTuner
from repro.core.arms import shape_arm_lists
from repro.core.oracle import score_order
from repro.engine import (
    Column,
    Database,
    IndexDefinition,
    JoinPredicate,
    Operator,
    Predicate,
    Query,
    Schema,
    Table,
    TableData,
    evaluate_predicate,
    pages_touched_by_random_fetches,
)
from repro.engine.query import _SHAPE_MEMO_SIZE
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


def oracle_select(entries, memory_budget_bytes):
    """The ``(arm, score, size)`` pool entries the oracle selects, in order."""
    scores = np.array([score for _, score, _ in entries], dtype=float)
    result = GreedyOracle().select(
        score_order(scores).tolist(),
        [arm for arm, _, _ in entries],
        [size for _, _, size in entries],
        memory_budget_bytes,
    )
    return [entries[position] for position in result.selected]


@settings(max_examples=60, deadline=None)
@given(raw_arms=scored_arm_strategy, budget=st.integers(0, 1500))
def test_oracle_never_exceeds_budget_and_never_selects_negative(raw_arms, budget):
    entries = []
    for position, (table, column, score, size) in enumerate(raw_arms):
        index = IndexDefinition(table, (column, f"extra_{position}"))
        arm = Arm(index=index, source_templates={f"template_{position}"})
        entries.append((arm, score, size))
    selected = oracle_select(entries, budget)
    assert sum(size for _, _, size in selected) <= budget
    assert all(score > 0 for _, score, _ in selected)
    # no two selected arms on the same table share a leading column
    leading = [(arm.index.table, arm.index.leading_column()) for arm, _, _ in selected]
    assert len(leading) == len(set(leading))


def reference_select(entries, memory_budget_bytes):
    """The oracle as it was with a list-scan prefix filter and a score sort.

    ``entries`` are ``(arm, score, size)`` pool entries; returns the selected
    ids, their total size and their total score.
    """
    candidates = sorted((e for e in entries if e[1] > 0), key=lambda e: e[1], reverse=True)
    remaining, selected, covered = memory_budget_bytes, [], set()
    while candidates:
        chosen = candidates.pop(0)
        arm, _, size = chosen
        if remaining is not None and size > remaining:
            continue
        selected.append(chosen)
        if remaining is not None:
            remaining -= size
        if arm.covering_for_queries:
            covered |= arm.source_templates
        candidates = [
            (a, score, s) for a, score, s in candidates
            if not (remaining is not None and s > remaining)
            and not any(
                a.index.table == c.index.table
                and a.index.leading_column() == c.index.leading_column()
                for c, _, _ in selected
            )
            and not (covered and a.source_templates and a.source_templates <= covered)
        ]
    ids = [arm.index_id for arm, _, _ in selected]
    return ids, sum(size for _, _, size in selected), sum(score for _, score, _ in selected)


def pool_entries(raw_arms):
    entries = []
    for table, key, score, size, templates, covering in raw_arms:
        arm = Arm(index=IndexDefinition(table, tuple(key)), source_templates=set(templates))
        if covering:
            arm.covering_for_queries = {"query#1"}
        entries.append((arm, score, size))
    return entries


def assert_matches_the_reference(entries, budget):
    expected_ids, expected_size, expected_score = reference_select(entries, budget)
    selected = oracle_select(entries, budget)
    assert [arm.index_id for arm, _, _ in selected] == expected_ids
    assert sum(size for _, _, size in selected) == expected_size
    assert sum(score for _, score, _ in selected) == expected_score


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
    assert_matches_the_reference(pool_entries(raw_arms), budget)


#: Pools whose scores tie exactly and whose sizes outgrow a tight budget, so
#: the tie order and the early exit decide the selection.
tied_arm_strategy = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2", "t3"]),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=2, unique=True),
        st.sampled_from([0.5, 1.0, 1.0, 2.0]),
        st.integers(min_value=1, max_value=200),
        st.sets(st.sampled_from(["q1", "q2", "q3"]), max_size=2),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(raw_arms=tied_arm_strategy, budget=st.integers(0, 300))
def test_oracle_matches_the_list_scan_on_tied_scores_and_tight_budgets(raw_arms, budget):
    assert_matches_the_reference(pool_entries(raw_arms), budget)


# ----------------------------------------------------------------------- #
# arm generation from the shared shape cache
# ----------------------------------------------------------------------- #
def reference_arms_for_query_table(config, query, table):
    """Arm generation for one (query, table) as it was before the shape cache."""
    predicate_columns = list(query.predicate_columns_for(table))
    join_columns = [c for c in query.join_columns_for(table) if c not in predicate_columns]
    key_candidates = predicate_columns + join_columns
    if not key_candidates:
        return []
    payload_columns = tuple(c for c in query.payload_columns_for(table) if c not in key_candidates)
    referenced = query.referenced_columns_for(table)
    arms, seen, budget = [], set(), config.max_arms_per_query_table

    def add(key_columns, include_columns):
        if len(arms) >= budget or (key_columns, include_columns) in seen:
            return
        seen.add((key_columns, include_columns))
        index = IndexDefinition(table, key_columns, include_columns)
        arm = Arm(index=index, source_templates={query.template_id})
        if index.covers_columns(referenced):
            arm.covering_for_queries.add(query.query_id)
        arms.append(arm)

    for width in range(1, min(config.max_index_width, len(key_candidates)) + 1):
        for combination in itertools.combinations(key_candidates, width):
            for permutation in itertools.permutations(combination):
                add(tuple(permutation), ())
                if config.include_covering_arms and payload_columns:
                    add(tuple(permutation), payload_columns)
                if len(arms) >= budget:
                    return arms
    return arms


def reference_generate(config, queries):
    """``ArmGenerator.generate`` as it was: (index id, templates, covering) in order."""
    merged = {}
    for query in queries:
        for table in query.tables:
            for arm in reference_arms_for_query_table(config, query, table):
                existing = merged.get(arm.index_id)
                if existing is None:
                    merged[arm.index_id] = arm
                else:
                    existing.source_templates |= arm.source_templates
                    existing.covering_for_queries |= arm.covering_for_queries
    return arm_summary(merged)


def arm_summary(arms):
    return [
        (index_id, set(arm.source_templates), set(arm.covering_for_queries))
        for index_id, arm in arms.items()
    ]


SHAPE_COLUMNS = {"t1": ["a", "b", "c", "d", "e"], "t2": ["a", "b", "c", "d"]}


@st.composite
def query_shapes(draw):
    """The column structure of a query over a two-table schema (no ids)."""
    tables = draw(st.lists(st.sampled_from(["t1", "t2"]), min_size=1, max_size=2, unique=True))
    predicates = tuple(
        Predicate(table, column, Operator.EQ, 1)
        for table, column in draw(st.lists(
            st.tuples(st.sampled_from(tables), st.sampled_from(SHAPE_COLUMNS["t2"])),
            max_size=4,
        ))
    )
    joins = ()
    if len(tables) == 2 and draw(st.booleans()):
        joins = (JoinPredicate(
            "t1", draw(st.sampled_from(SHAPE_COLUMNS["t1"])),
            "t2", draw(st.sampled_from(SHAPE_COLUMNS["t2"])),
        ),)
    payload = {
        table: tuple(draw(st.lists(st.sampled_from(SHAPE_COLUMNS[table]), max_size=3, unique=True)))
        for table in tables
        if draw(st.booleans())
    }
    return tuple(tables), predicates, joins, payload


@st.composite
def arm_workloads(draw):
    """Queries that reuse a few column structures under different template/query ids."""
    shapes = draw(st.lists(query_shapes(), min_size=1, max_size=4))
    queries = []
    for number in range(draw(st.integers(1, 8))):
        tables, predicates, joins, payload = draw(st.sampled_from(shapes))
        template = draw(st.sampled_from(["qa", "qb", "qc"]))
        queries.append(Query(f"{template}#{number}", template, tables, predicates, joins, dict(payload)))
    return queries


arm_configs = st.builds(
    MabConfig,
    max_index_width=st.sampled_from([1, 2, 3]),
    max_arms_per_query_table=st.sampled_from([1, 5, 24]),
    include_covering_arms=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(queries=arm_workloads(), config=arm_configs)
def test_cached_arm_generation_matches_the_reference(queries, config):
    generated = ArmGenerator(config).generate(queries)
    assert arm_summary(generated) == reference_generate(config, queries)
    assert all(arm.index_id == index_id for index_id, arm in generated.items())


def test_mutating_generated_arms_leaves_the_cache_unchanged():
    queries = [
        Query("qa#1", "qa", ("t1", "t2"),
              (Predicate("t1", "a", Operator.EQ, 1), Predicate("t2", "b", Operator.EQ, 2)),
              (JoinPredicate("t1", "c", "t2", "a"),),
              {"t1": ("d",), "t2": ("c",)}),
        Query("qb#2", "qb", ("t1",), (Predicate("t1", "a", Operator.EQ, 3),), (), {"t1": ("e",)}),
    ]
    generator = ArmGenerator()
    first = generator.generate(queries)
    expected = arm_summary(first)
    assert any(covering for _, _, covering in expected)
    for arm in first.values():
        arm.source_templates.add("intruder")
        arm.covering_for_queries.clear()
        arm.usage_rounds += 5
    second = generator.generate(queries)
    assert arm_summary(second) == expected
    assert all(arm.usage_rounds == 0 for arm in second.values())
    assert not any(second[index_id] is arm for index_id, arm in first.items())


def test_generators_with_different_configs_do_not_share_cache_entries():
    queries = [
        Query("qa#1", "qa", ("t1",),
              (Predicate("t1", "a", Operator.EQ, 1), Predicate("t1", "b", Operator.EQ, 2)),
              (), {"t1": ("c", "d")}),
        Query("qb#2", "qb", ("t1",), (Predicate("t1", "b", Operator.EQ, 2),), (), {"t1": ("c",)}),
    ]
    narrow_config = MabConfig(max_index_width=1, include_covering_arms=False)
    default_config = MabConfig()
    narrow, default = ArmGenerator(narrow_config), ArmGenerator(default_config)
    for _ in range(2):
        assert arm_summary(narrow.generate(queries)) == reference_generate(narrow_config, queries)
        assert arm_summary(default.generate(queries)) == reference_generate(default_config, queries)
    assert len(narrow.generate(queries)) < len(default.generate(queries))


# ----------------------------------------------------------------------- #
# a persistent arm registry across rounds and resets
# ----------------------------------------------------------------------- #
def reference_round(config, registry, queries):
    """Merge one round into ``registry`` (``{index_id: (templates, covering)}``).

    A known arm's covering set restarts on its first appearance in the round,
    its templates accumulate over every round, and an arm absent from the
    round keeps both.  Returns the round's pool order.
    """
    pool = {}
    for query in queries:
        for table in query.tables:
            for arm in reference_arms_for_query_table(config, query, table):
                index_id = arm.index_id
                if index_id not in pool:
                    pool[index_id] = None
                    if index_id in registry:
                        registry[index_id][1].clear()
                    else:
                        registry[index_id] = (set(), set())
                templates, covering = registry[index_id]
                templates |= arm.source_templates
                covering |= arm.covering_for_queries
    return list(pool)


def replay_registry(config, steps):
    """Drive one MAB tuner's registry through ``steps`` and check every round.

    A step is a list of queries of interest, or ``None`` for
    :meth:`MabTuner.reset`.
    """
    tuner = MabTuner(Database(Schema(name="shapes", tables=[]), {}), config)
    reference = {}
    for queries in steps:
        if queries is None:
            tuner.reset()
            reference.clear()
            assert tuner.known_arms == {}
            continue
        pool = tuner.arm_generator.generate(queries, tuner.known_arms)
        assert list(pool) == reference_round(config, reference, queries)
        assert all(tuner.known_arms[index_id] is arm for index_id, arm in pool.items())
        assert list(tuner.known_arms) == list(reference)
        assert {
            index_id: (arm.source_templates, arm.covering_for_queries)
            for index_id, arm in tuner.known_arms.items()
        } == reference


@st.composite
def registry_steps(draw):
    """Rounds of queries of interest, with resets, over a few reused queries.

    Queries are drawn once and recur across rounds, as a query store hands
    back a template's latest instance; a template id may carry several
    shapes, and a ``dataclasses.replace`` copy derives its own shape.
    """
    queries = draw(arm_workloads())
    queries += [
        dataclasses.replace(query, query_id=f"{query.query_id}r")
        for query in queries
        if draw(st.booleans())
    ]
    round_queries = st.lists(st.sampled_from(queries), max_size=6)
    return draw(st.lists(st.one_of(st.none(), round_queries), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(steps=registry_steps(), config=arm_configs)
def test_registry_matches_the_reference_merge_after_every_round(steps, config):
    replay_registry(config, steps)


def test_registry_across_a_reset_a_reshaped_template_and_a_returning_one():
    def query(query_id, template, predicates, payload):
        return Query(
            query_id, template, ("t1",),
            tuple(Predicate("t1", column, Operator.EQ, 1) for column in predicates),
            (), {"t1": payload},
        )

    qa = query("qa#1", "qa", ("a", "b"), ("c",))
    qb = query("qb#1", "qb", ("b",), ("d",))
    # A hand-built query that reuses template qa with another shape.
    qa_reshaped = query("qa#2", "qa", ("c",), ("a", "e"))
    steps = [
        [qa, qb],
        [qb],  # qa leaves the window ...
        [qa_reshaped, qb],
        [qa, qb],  # ... and comes back
        None,
        [qa_reshaped],
        [qa, qa_reshaped],
    ]
    for config in (MabConfig(), MabConfig(max_index_width=1, include_covering_arms=False)):
        replay_registry(config, steps)


def test_registry_with_more_shapes_than_the_arm_list_memo_holds():
    config = MabConfig()
    memo = shape_arm_lists(
        config.max_index_width, config.max_arms_per_query_table, config.include_covering_arms
    )
    subsets = [
        subset
        for width in (1, 2, 3)
        for subset in itertools.combinations(SHAPE_COLUMNS["t1"], width)
    ]
    queries = [
        Query(
            f"q{number % 7}#{number}", f"q{number % 7}", ("t1",),
            tuple(Predicate("t1", column, Operator.EQ, 1) for column in subsets[number % len(subsets)]),
            (), {"t1": ("e",)},
        )
        for number in range(_SHAPE_MEMO_SIZE + 100)
    ]
    steps = [queries[start:start + 50] for start in range(0, len(queries), 50)]
    # The earliest shapes were evicted by now; they come back.
    steps.append(queries[:30])
    replay_registry(config, steps)
    assert len(memo) == _SHAPE_MEMO_SIZE


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
    key=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
    prefix_length=st.integers(0, 5),
)
def test_index_key_prefix_never_longer_than_key(key, prefix_length):
    index = IndexDefinition("t", tuple(key))
    assert len(index.key_prefix(prefix_length)) <= len(key)
