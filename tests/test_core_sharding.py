"""Caller-sharded scoring through the MAB tuner's pool protocol.

A caller that drives :class:`~repro.core.MabTuner` through
``begin_round`` / ``pool_contexts`` / ``complete_round`` (as the fleet does)
may score the round's arm pool however it likes — here split into shards by
table or by a hash of the index id and scored through the batched pass.  The
load-bearing guarantee is *selection parity*: such a round recommends the
same configuration as the tuner's own monolithic pass, because every shard
is scored against the one global C²UCB learner by the same kernel, while
the tie-break jitter is still drawn once for the whole pool inside
``complete_round``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.api import SimulationOptions, TuningSession, create_tuner
from repro.core import MabTuner
from repro.core.linear_bandit import batch_upper_confidence_scores
from repro.workloads import StaticWorkload, get_benchmark

N_HASH_SHARDS = 4


def shard_positions(arms, shard_by: str) -> list[list[int]]:
    """Pool positions grouped into shards, each in pool order."""
    groups: dict[object, list[int]] = {}
    for position, arm in enumerate(arms):
        if shard_by == "table":
            key: object = arm.index.table
        else:
            key = zlib.crc32(arm.index_id.encode()) % N_HASH_SHARDS
        groups.setdefault(key, []).append(position)
    return list(groups.values())


def sharded_recommend(
    session: TuningSession,
    round_number: int,
    shard_by: str,
    shard_counts: list[int] | None = None,
):
    """One recommendation with the pool's shards scored in one batched pass."""
    tuner = session.tuner
    assert isinstance(tuner, MabTuner)
    pool = tuner.begin_round(round_number)
    if pool.arms is None:
        recommendation = tuner.complete_round(pool, None)
    else:
        contexts = tuner.pool_contexts(pool)
        shards = shard_positions(pool.arms, shard_by)
        if shard_counts is not None:
            shard_counts.append(len(shards))
        blocks = [contexts[positions] for positions in shards]
        shard_scores = batch_upper_confidence_scores(
            [tuner.bandit] * len(blocks), blocks, [pool.alpha] * len(blocks)
        )
        scores = np.empty(len(pool.arms))
        for positions, block_scores in zip(shards, shard_scores):
            scores[positions] = block_scores
        recommendation = tuner.complete_round(pool, scores)
    return session.adopt_recommendation(recommendation, round_number=round_number)


def run_configurations(
    benchmark_name: str,
    shard_by: str | None,
    n_rounds: int = 6,
    shard_counts: list[int] | None = None,
):
    """Per-round selected configurations of a MAB session at fixed seeds."""
    benchmark = get_benchmark(benchmark_name)
    database = benchmark.create_database(sample_rows=300, seed=7)
    rounds = StaticWorkload(
        database, benchmark.templates, n_rounds=n_rounds, seed=1
    ).materialise()
    session = TuningSession(
        database,
        create_tuner("MAB", database),
        SimulationOptions(benchmark_name=benchmark_name),
    )
    configurations = []
    for workload_round in rounds:
        if shard_by is None:
            recommendation = session.recommend(round_number=workload_round.round_number)
        else:
            recommendation = sharded_recommend(
                session, workload_round.round_number, shard_by, shard_counts
            )
        configurations.append(
            sorted(index.index_id for index in recommendation.configuration)
        )
        session.execute(workload_round.queries)
        session.observe()
    return configurations, session.tuner


@pytest.mark.parametrize("benchmark_name", ["tpch", "ssb"])
@pytest.mark.parametrize("shard_by", ["table", "hash"])
def test_sharded_recommendations_match_monolithic(benchmark_name, shard_by):
    monolithic, _ = run_configurations(benchmark_name, None)
    shard_counts: list[int] = []
    sharded, _ = run_configurations(benchmark_name, shard_by, shard_counts=shard_counts)
    assert sharded == monolithic
    assert max(shard_counts) >= 2
    assert any(index_ids for index_ids in monolithic), "runs must select something"


def test_sharded_selection_respects_memory_budget(tiny_database):
    from tests.conftest import make_join_query, make_sales_query

    tiny_database.memory_budget_bytes = 5 * 1024 * 1024
    tuner = MabTuner(tiny_database)
    session = TuningSession(tiny_database, tuner, SimulationOptions())
    session.step([make_sales_query(), make_join_query()])
    recommendation = sharded_recommend(session, 2, "table")
    total = sum(
        tiny_database.index_size_bytes(index)
        for index in recommendation.configuration
    )
    assert total <= tiny_database.memory_budget_bytes


def test_bandit_state_stays_global_across_shards():
    """Sharding partitions scoring, not learning: V accumulates globally."""

    def run(shard_by):
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(sample_rows=200, seed=3)
        tuner = MabTuner(database)
        session = TuningSession(database, tuner, SimulationOptions())
        rounds = StaticWorkload(
            database, benchmark.templates[:4], n_rounds=4, seed=2
        ).materialise()
        for workload_round in rounds:
            if shard_by is None:
                session.recommend(round_number=workload_round.round_number)
            else:
                sharded_recommend(session, workload_round.round_number, shard_by)
            session.execute(workload_round.queries)
            session.observe()
        return tuner

    monolithic = run(None)
    sharded = run("table")
    assert sharded.bandit.observations > 0
    np.testing.assert_array_equal(
        sharded.bandit.scatter_matrix, monolithic.bandit.scatter_matrix
    )
    np.testing.assert_array_equal(
        sharded.bandit.response_vector, monolithic.bandit.response_vector
    )
    assert sharded.bandit.inversion_count == monolithic.bandit.inversion_count
