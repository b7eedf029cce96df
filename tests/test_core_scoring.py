"""The C²UCB scoring kernels, the batched pass and the pool protocol around them.

The load-bearing guarantees:

* **score parity** — :func:`~repro.core.linear_bandit.ucb_scores` is the one
  kernel behind the live :class:`~repro.core.linear_bandit.C2UCB` learner,
  and the fleet's batched pass
  (:func:`~repro.core.linear_bandit.batch_upper_confidence_scores`, which
  packs same-shaped blocks into one stacked tensor) scores every block
  bit-identically to the learner scoring it alone, for any block layout and
  input dtype;
* **the process pool** — :func:`repro.api.run_competition`, the one process
  pool in the package, merges bit-identical reports at any worker count;
* **the pool protocol** — a caller that scores a
  :class:`~repro.core.MabTuner` round itself (as the fleet does) gets the
  recommendations of the tuner's own monolithic pass.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.api import (
    DatabaseSpec,
    SimulationOptions,
    TenantSpec,
    TunerSpec,
    TuningFleet,
    TuningSession,
    run_competition,
)
from repro.core import MabConfig, MabTuner
from repro.core.linear_bandit import (
    C2UCB,
    batch_upper_confidence_scores,
    ucb_scores,
)
from repro.workloads import StaticWorkload, get_benchmark


def trained_problem(seed: int, n_arms: int, dimension: int):
    """A learner trained by ``update`` on random rewards, and contexts to score."""
    rng = np.random.default_rng(seed)
    learner = C2UCB(dimension=dimension)
    for _ in range(3):
        learner.update(rng.normal(size=(5, dimension)), rng.normal(size=5))
    return learner, rng.normal(size=(n_arms, dimension))


def split_rows(n_rows: int, n_blocks: int) -> list[tuple[int, int]]:
    """Deterministic uneven block boundaries covering ``range(n_rows)``."""
    edges = sorted({0, n_rows, *((i * n_rows) // n_blocks for i in range(1, n_blocks))})
    return [(start, stop) for start, stop in zip(edges, edges[1:]) if stop > start]


def score_blocks(
    learner: C2UCB,
    contexts: np.ndarray,
    boundaries: list[tuple[int, int]],
    alpha: float,
) -> list[np.ndarray]:
    """Score each row block of ``contexts`` in one batched pass."""
    blocks = [contexts[start:stop] for start, stop in boundaries]
    return batch_upper_confidence_scores(
        [learner] * len(blocks), blocks, [alpha] * len(blocks)
    )


# --------------------------------------------------------------------- #
# score parity: batched blocks == monolithic == per-block, bit for bit
# --------------------------------------------------------------------- #
class TestPackedParity:
    def test_kernel_matches_live_learner_bitwise(self):
        learner, contexts = trained_problem(1, 50, 8)
        expected = learner.upper_confidence_scores(contexts, 2.0)
        kernel = ucb_scores(learner.theta(), learner._inverse(), contexts, 2.0)
        assert np.array_equal(kernel, expected)

    @pytest.mark.parametrize("n_arms", [1, 7, 64, 500])
    @pytest.mark.parametrize("n_blocks", [1, 3, 8])
    def test_packed_blocks_match_monolithic_and_per_shard(self, n_arms, n_blocks):
        learner, contexts = trained_problem(n_arms * 31 + n_blocks, n_arms, 10)
        boundaries = split_rows(n_arms, n_blocks)
        batched = score_blocks(learner, contexts, boundaries, alpha=0.7)
        assert len(batched) == len(boundaries)

        # Per-block parity: every block of the stacked pass scores exactly as
        # the learner scores that block on its own.
        for (start, stop), scores in zip(boundaries, batched):
            assert np.array_equal(
                scores, learner.upper_confidence_scores(contexts[start:stop], 0.7)
            )
        # Monolithic parity: a single-block batch IS the monolithic pass.
        if len(boundaries) == 1:
            assert np.array_equal(
                batched[0], learner.upper_confidence_scores(contexts, 0.7)
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_parity_across_input_dtypes(self, dtype):
        learner, contexts = trained_problem(5, 40, 6)
        cast = (contexts * 8).astype(dtype)
        batched = score_blocks(learner, cast, split_rows(40, 4), alpha=1.0)
        # Both passes convert inputs through C2UCB._validate_contexts — the
        # same numeric path whatever the caller's dtype.
        assert np.array_equal(
            np.concatenate(batched), learner.upper_confidence_scores(cast, 1.0)
        )

    def test_empty_pool_scores_empty(self):
        assert batch_upper_confidence_scores([], [], []) == []
        learner = C2UCB(dimension=3)
        (scores,) = batch_upper_confidence_scores([learner], [np.zeros((0, 3))], [1.0])
        assert scores.shape == (0,)

    def test_pack_rejects_misaligned_blocks(self):
        learner = C2UCB(dimension=3)
        with pytest.raises(ValueError):
            batch_upper_confidence_scores([learner], [np.zeros((2, 3))], [])
        with pytest.raises(ValueError):
            batch_upper_confidence_scores([learner, learner], [np.zeros((2, 3))], [1.0])
        with pytest.raises(ValueError):
            batch_upper_confidence_scores([learner], [np.zeros((2, 4))], [1.0])


# --------------------------------------------------------------------- #
# the competition's process pool
# --------------------------------------------------------------------- #
def tiny_spec() -> DatabaseSpec:
    return DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=4)


@pytest.fixture(scope="module")
def ssb_rounds():
    benchmark = get_benchmark("ssb")
    return StaticWorkload(
        tiny_spec().create(), benchmark.templates[:4], n_rounds=3, seed=1
    ).materialise()


def round_record(round_report) -> tuple:
    """The model-side outcome of one round (no wall-clock fields)."""
    return (
        round_report.recommendation_seconds,
        round_report.total_seconds,
        round_report.creation_seconds,
        round_report.execution_seconds,
        round_report.configuration_size,
        round_report.configuration_bytes,
        round_report.indexes_created,
        round_report.indexes_dropped,
    )


def round_records(report) -> list[tuple]:
    return [round_record(round_report) for round_report in report.rounds]


class TestProcessPool:
    ENTRIES = {
        "mab": "MAB",
        "mab_ssb": ("MAB", TunerSpec("ssb", "static")),
        "none": "NoIndex",
    }

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_invariance_bitwise(self, workers, ssb_rounds):
        serial = run_competition(tiny_spec(), self.ENTRIES, ssb_rounds, workers=1)
        parallel = run_competition(
            tiny_spec(), self.ENTRIES, ssb_rounds, workers=workers
        )
        assert list(parallel) == list(serial) == list(self.ENTRIES)
        for label in self.ENTRIES:
            assert parallel[label].tuner_name == label
            assert round_records(parallel[label]) == round_records(serial[label])
        assert serial["mab"].total_creation_seconds > 0

    def test_single_block_pool_stays_serial(self, ssb_rounds):
        # A one-entry competition never forks, so even an unpicklable
        # database factory runs at a high worker count.
        spec = tiny_spec()
        reports = run_competition(
            lambda: spec.create(), {"mab": "MAB"}, ssb_rounds, workers=4
        )
        assert reports["mab"].n_rounds == len(ssb_rounds)


# --------------------------------------------------------------------- #
# the pool protocol: caller-scored rounds == the tuner's own pass
# --------------------------------------------------------------------- #
class TestTunerIntegration:
    def test_mab_tuner_satisfies_configurable_scoring(self, tiny_database):
        """``complete_round`` selects by whatever scores the caller supplies."""
        from tests.conftest import make_join_query, make_sales_query

        tuner = MabTuner(tiny_database)
        session = TuningSession(tiny_database, tuner, SimulationOptions())
        session.step([make_sales_query(), make_join_query()])

        pool = tuner.begin_round(2)
        assert pool.arms is not None and len(pool.arms) >= 2
        contexts = tuner.pool_contexts(pool)
        assert contexts.shape == (len(pool.arms), tuner.bandit.dimension)
        favourite = len(pool.arms) - 1
        scores = np.full(len(pool.arms), -1.0)
        scores[favourite] = 1.0
        recommendation = tuner.complete_round(pool, scores)
        assert [index.index_id for index in recommendation.configuration] == [
            pool.arms[favourite].index_id
        ]

    def test_packed_session_matches_monolithic_with_process_workers(self, ssb_rounds):
        """Fleet tenants scored in one packed pass match standalone sessions
        run monolithically in the competition's worker processes."""
        spec = tiny_spec()
        fleet = TuningFleet(TenantSpec(tenant, spec, tuner="MAB") for tenant in "ab")
        packed: dict[str, list[tuple]] = {"a": [], "b": []}
        for workload_round in ssb_rounds:
            reports = fleet.step_workload_round(workload_round)
            for tenant in packed:
                packed[tenant].append(round_record(reports[tenant]))

        monolithic = run_competition(
            spec, {"a": "MAB", "b": "MAB"}, ssb_rounds, workers=2
        )
        for tenant in packed:
            assert packed[tenant] == round_records(monolithic[tenant])
        assert any(record[2] for record in packed["a"]), "runs must select something"


# --------------------------------------------------------------------- #
# no deprecation shim is left on the config surface
# --------------------------------------------------------------------- #
class TestDeprecationShims:
    def test_mab_config_replace_round_trip_neither_warns_nor_mutates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            original = MabConfig(seed=11)
            bumped = dataclasses.replace(original, seed=23)
        assert original.seed == 11
        assert bumped.seed == 23
        assert dataclasses.replace(bumped, seed=11) == original
        field_names = {field.name for field in dataclasses.fields(MabConfig)}
        assert field_names.isdisjoint(
            {"scoring", "shard_by", "shard_top_k", "shard_workers", "n_hash_shards"}
        )
