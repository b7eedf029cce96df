"""Tests for the C²UCB linear bandit learner."""

import numpy as np
import pytest

from repro.core import C2UCB


class TestInitialisation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            C2UCB(dimension=0)
        with pytest.raises(ValueError):
            C2UCB(dimension=3, regularisation=0)

    def test_initial_state(self):
        bandit = C2UCB(dimension=3, regularisation=2.0)
        assert np.allclose(bandit.scatter_matrix, 2.0 * np.eye(3))
        assert np.allclose(bandit.response_vector, np.zeros(3))
        assert np.allclose(bandit.theta(), np.zeros(3))


class TestScoring:
    def test_ucb_at_least_expected_reward(self):
        bandit = C2UCB(dimension=4)
        contexts = np.random.default_rng(0).normal(size=(6, 4))
        expected = bandit.expected_rewards(contexts)
        ucb = bandit.upper_confidence_scores(contexts, alpha=1.0)
        assert np.all(ucb >= expected - 1e-12)

    def test_alpha_zero_means_pure_exploitation(self):
        bandit = C2UCB(dimension=4)
        contexts = np.random.default_rng(1).normal(size=(5, 4))
        assert np.allclose(
            bandit.upper_confidence_scores(contexts, alpha=0.0),
            bandit.expected_rewards(contexts),
        )

    def test_negative_alpha_rejected(self):
        bandit = C2UCB(dimension=2)
        with pytest.raises(ValueError):
            bandit.upper_confidence_scores(np.zeros((1, 2)), alpha=-1.0)

    def test_context_shape_validation(self):
        bandit = C2UCB(dimension=3)
        with pytest.raises(ValueError):
            bandit.expected_rewards(np.zeros((2, 4)))

    def test_one_dimensional_context_accepted(self):
        bandit = C2UCB(dimension=3)
        assert bandit.expected_rewards(np.zeros(3)).shape == (1,)


class TestLearning:
    def test_recovers_linear_reward_model(self):
        rng = np.random.default_rng(7)
        true_theta = np.array([1.5, -2.0, 0.5, 0.0, 3.0])
        bandit = C2UCB(dimension=5, regularisation=0.1)
        for _ in range(200):
            contexts = rng.normal(size=(4, 5))
            rewards = contexts @ true_theta + rng.normal(scale=0.01, size=4)
            bandit.update(contexts, rewards)
        assert np.allclose(bandit.theta(), true_theta, atol=0.05)

    def test_exploration_bonus_shrinks_with_observations(self):
        bandit = C2UCB(dimension=3)
        context = np.array([[1.0, 0.5, 0.0]])
        before = bandit.exploration_bonus(context)[0]
        for _ in range(50):
            bandit.update(context, np.array([1.0]))
        after = bandit.exploration_bonus(context)[0]
        assert after < before / 3

    def test_update_length_mismatch_rejected(self):
        bandit = C2UCB(dimension=2)
        with pytest.raises(ValueError):
            bandit.update(np.zeros((2, 2)), np.zeros(3))

    def test_empty_update_counts_round(self):
        bandit = C2UCB(dimension=2)
        bandit.update(np.zeros((0, 2)), np.zeros(0))
        assert bandit.rounds_observed == 1
        assert bandit.observations == 0

    def test_scatter_matrix_stays_positive_definite(self):
        rng = np.random.default_rng(3)
        bandit = C2UCB(dimension=4)
        for _ in range(20):
            bandit.update(rng.normal(size=(3, 4)), rng.normal(size=3))
        eigenvalues = np.linalg.eigvalsh(bandit.scatter_matrix)
        assert np.all(eigenvalues > 0)


class TestIncrementalInverse:
    """The maintained V^{-1} must match np.linalg.inv without ever calling it
    in the steady state."""

    def test_equivalence_over_random_update_forget_interleavings(self):
        rng = np.random.default_rng(42)
        dimension = 12
        bandit = C2UCB(dimension=dimension, regularisation=0.7, refresh_interval=64)
        for step in range(200):
            action = rng.uniform()
            if action < 0.15:
                bandit.forget(float(rng.uniform(0.2, 0.9)))
            else:
                k = int(rng.integers(1, 5))
                contexts = rng.normal(size=(k, dimension))
                rewards = rng.normal(size=k)
                bandit.update(contexts, rewards)
            reference = np.linalg.inv(bandit.scatter_matrix)
            assert np.allclose(bandit._inverse(), reference, atol=1e-8)
            assert np.allclose(bandit.theta(), reference @ bandit.response_vector, atol=1e-8)

    def test_no_full_inversion_in_steady_state(self):
        rng = np.random.default_rng(5)
        dimension = 16
        bandit = C2UCB(dimension=dimension, refresh_interval=10_000)
        contexts_pool = rng.normal(size=(50, dimension))
        # Warm-up round, then measure: scoring + rank-k updates must not
        # trigger any np.linalg.inv call.
        bandit.update(contexts_pool[:3], rng.normal(size=3))
        baseline = bandit.inversion_count
        for _ in range(100):
            bandit.upper_confidence_scores(contexts_pool, alpha=1.0)
            k = int(rng.integers(1, 4))
            rows = rng.integers(0, len(contexts_pool), size=k)
            bandit.update(contexts_pool[rows], rng.normal(size=k))
        assert bandit.inversion_count == baseline == 0

    def test_periodic_refresh_triggers_full_inversion(self):
        rng = np.random.default_rng(6)
        bandit = C2UCB(dimension=4, refresh_interval=8)
        for _ in range(16):
            bandit.update(rng.normal(size=(1, 4)), rng.normal(size=1))
        assert bandit.inversion_count >= 2

    def test_forget_reinverts_lazily_not_eagerly(self):
        rng = np.random.default_rng(7)
        bandit = C2UCB(dimension=4, refresh_interval=10_000)
        bandit.update(rng.normal(size=(3, 4)), rng.normal(size=3))
        before = bandit.inversion_count
        bandit.forget(0.5)
        assert bandit.inversion_count == before
        bandit.theta()
        assert bandit.inversion_count == before + 1


class TestForgettingAndReset:
    def test_forget_keeps_theta_consistent_with_blended_state(self):
        """theta() after forget must equal V_blend^{-1} b_blend exactly."""
        rng = np.random.default_rng(11)
        bandit = C2UCB(dimension=6, regularisation=2.0)
        for _ in range(20):
            bandit.update(rng.normal(size=(2, 6)), rng.normal(size=2))
        keep = 0.35
        expected_v = keep * bandit.scatter_matrix + (1 - keep) * 2.0 * np.eye(6)
        expected_b = keep * bandit.response_vector
        bandit.forget(keep)
        assert np.allclose(bandit.scatter_matrix, expected_v)
        assert np.allclose(bandit.response_vector, expected_b)
        assert np.allclose(bandit.theta(), np.linalg.solve(expected_v, expected_b), atol=1e-10)

    def test_forget_interpolates_towards_prior(self):
        bandit = C2UCB(dimension=2, regularisation=1.0)
        bandit.update(np.array([[1.0, 0.0]]), np.array([5.0]))
        theta_before = bandit.theta()[0]
        bandit.forget(0.5)
        theta_after = bandit.theta()[0]
        assert 0 < theta_after < theta_before
        bandit.forget(0.0)
        assert np.allclose(bandit.theta(), np.zeros(2))

    def test_forget_validation(self):
        bandit = C2UCB(dimension=2)
        with pytest.raises(ValueError):
            bandit.forget(1.5)

    def test_reset_restores_initial_state(self):
        bandit = C2UCB(dimension=2)
        bandit.update(np.ones((1, 2)), np.array([1.0]))
        bandit.reset()
        assert np.allclose(bandit.theta(), np.zeros(2))
        assert bandit.observations == 0

    def test_tie_break_is_tiny(self):
        bandit = C2UCB(dimension=2)
        jitter = bandit.tie_break(10)
        assert jitter.shape == (10,)
        assert np.all(np.abs(jitter) < 1e-6)
