"""The C²UCB contextual combinatorial bandit (Algorithm 1 of the paper).

The learner maintains a single shared weight vector ``theta`` estimated by
ridge regression over every (context, reward) observation from every arm that
was ever played.  Because the knowledge lives in ``theta`` rather than in
per-arm statistics, a brand-new arm with a known context can be scored without
ever having been played — the property that makes workload-driven dynamic arm
generation viable.

Scores are upper confidence bounds::

    ucb_i = theta' x_i  +  alpha_t * sqrt(x_i' V^{-1} x_i)

where ``V`` is the regularised scatter matrix of the contexts of previously
played arms.  The second term boosts arms whose contexts lie in underexplored
directions of context space.

``V^{-1}`` is maintained *incrementally*: a rank-1 observation applies the
Sherman–Morrison identity and a batch of ``k`` observations applies the
Woodbury identity (one ``k x k`` solve), so the steady-state
``recommend -> observe`` loop never pays the ``O(d^3)`` cost of
``np.linalg.inv``.  A full re-inversion still happens (a) lazily after
:meth:`forget`, whose blend towards the prior is not low-rank, and (b) every
``refresh_interval`` observations as numerical hygiene against drift of the
incremental updates.  :attr:`inversion_count` counts the full inversions so
tests can pin the steady-state behaviour.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


# --------------------------------------------------------------------- #
# kernels — the single implementation of the C²UCB score
# --------------------------------------------------------------------- #
def expected_rewards(theta: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """Point estimates ``theta' x_i`` for each context row."""
    return contexts @ theta


def exploration_bonus(v_inverse: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """Confidence widths ``sqrt(x' V^{-1} x)`` for each context row."""
    # (X @ V^{-1}) * X summed by row == diag(X V^{-1} X'), via BLAS.
    widths = np.einsum("ij,ij->i", contexts @ v_inverse, contexts)
    return np.sqrt(np.maximum(widths, 0.0))


def ucb_scores(
    theta: np.ndarray,
    v_inverse: np.ndarray,
    contexts: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """UCB scores ``theta' x + alpha * sqrt(x' V^{-1} x)`` per context row.

    The exact operation sequence every scoring surface performs — changing
    it changes the low-order bits of every recommendation in the repo.
    """
    return expected_rewards(theta, contexts) + alpha * exploration_bonus(
        v_inverse, contexts
    )


def batch_upper_confidence_scores(
    learners: "Sequence[C2UCB]",
    context_blocks: "Sequence[np.ndarray]",
    alphas: "Sequence[float]",
) -> list[np.ndarray]:
    """Score many independent learners' arm pools in one vectorized pass.

    The multi-tenant fleet (:mod:`repro.fleet`) holds one :class:`C2UCB`
    learner *per tenant*; at recommendation time every tenant contributes
    its learner, its context block and its exploration boost.  Rather than
    scoring the tenants one by one, this entry point stacks same-shaped
    context blocks into one ``(T, k, d)`` tensor and computes every
    tenant's confidence widths with a single batched ``matmul`` + ``einsum``
    pass over the stacked ``V⁻¹`` tensor.  The learners are only read.

    Bit-for-bit parity with per-tenant scoring is part of the contract (the
    fleet's fleet-vs-independent-sessions parity test depends on it), so the
    pass only uses operations whose batched form reduces each slice exactly
    like the 2-D form:

    * ``stacked @ v_inverse_stack`` — NumPy dispatches one GEMM per slice,
      identical to ``contexts @ v_inverse``;
    * ``einsum("tkd,tkd->tk", ...)`` — the same row-wise reduction as the
      2-D ``einsum("ij,ij->i", ...)``;
    * the expected-reward term stays a per-tenant GEMV (``contexts @
      theta``), because folding the thetas into one GEMM changes the BLAS
      accumulation order and therefore the low-order bits.

    Blocks whose shape differs (tenants mid-divergence, ragged pools) are
    grouped by shape; each group gets its own stacked pass.

    Args:
        learners: One learner per tenant.
        context_blocks: One ``(k_t, dimension)`` context matrix per tenant
            (``k_t`` may differ between tenants).
        alphas: One non-negative exploration boost per tenant.

    Returns:
        Per-tenant score vectors, each bit-identical to
        ``learners[t].upper_confidence_scores(context_blocks[t], alphas[t])``.

    Raises:
        ValueError: On length mismatches, a negative ``alpha``, or a context
            block whose width does not match its learner's dimension.
    """
    if not (len(learners) == len(context_blocks) == len(alphas)):
        raise ValueError(
            f"got {len(learners)} learners, {len(context_blocks)} context "
            f"blocks and {len(alphas)} alphas; all three must align"
        )
    blocks: list[np.ndarray] = []
    for learner, block, alpha in zip(learners, context_blocks, alphas):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        blocks.append(learner._validate_contexts(block))

    groups: dict[tuple[int, int], list[int]] = {}
    for position, block in enumerate(blocks):
        groups.setdefault(block.shape, []).append(position)

    results: list[np.ndarray | None] = [None] * len(learners)
    for indices in groups.values():
        stacked = np.stack([blocks[i] for i in indices])  # (T, k, d)
        v_inverse_stack = np.stack([learners[i]._inverse() for i in indices])
        projected = stacked @ v_inverse_stack  # (T, k, d): one GEMM per slice
        widths = np.einsum("tkd,tkd->tk", projected, stacked)
        bonuses = np.sqrt(np.maximum(widths, 0.0))
        for row, i in enumerate(indices):
            # Same GEMV as :func:`expected_rewards` — folding the thetas
            # into one GEMM would change the accumulation order.
            expected = expected_rewards(learners[i].theta(), blocks[i])
            results[i] = expected + alphas[i] * bonuses[row]
    return [result for result in results if result is not None]


class C2UCB:
    """Contextual combinatorial UCB with a shared linear reward model."""

    def __init__(
        self,
        dimension: int,
        regularisation: float = 1.0,
        seed: int = 17,
        refresh_interval: int = 512,
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        if regularisation <= 0:
            raise ValueError("regularisation must be positive")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be at least 1")
        self.dimension = dimension
        self.regularisation = regularisation
        self.refresh_interval = refresh_interval
        self.seed = seed
        #: Number of full ``np.linalg.inv`` calls performed so far (hygiene
        #: refreshes and post-``forget`` recoveries; never the steady state).
        self.inversion_count = 0
        self.reset()

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Reinitialise ``V = lambda * I`` and ``b = 0`` (line 2 of Algorithm 1).

        The tie-break random stream restarts from its seed too, so a reset
        learner replays bit-identically to a freshly constructed one.
        """
        self._rng = np.random.default_rng(self.seed)
        self._v = self.regularisation * np.eye(self.dimension)
        self._b = np.zeros(self.dimension)
        # The inverse of a scaled identity is known in closed form — no
        # np.linalg.inv needed to start.
        self._v_inverse: np.ndarray | None = np.eye(self.dimension) / self.regularisation
        self._theta: np.ndarray | None = None
        self._observations_since_refresh = 0
        self.rounds_observed = 0
        self.observations = 0

    @property
    def scatter_matrix(self) -> np.ndarray:
        """A copy of the current scatter matrix ``V``."""
        return self._v.copy()

    @property
    def response_vector(self) -> np.ndarray:
        """A copy of the current response vector ``b``."""
        return self._b.copy()

    def _full_reinversion(self) -> np.ndarray:
        """Recompute ``V^{-1}`` from scratch (the only ``np.linalg.inv`` site)."""
        self.inversion_count += 1
        inverse = np.linalg.inv(self._v)
        # V is symmetric; keep its inverse exactly symmetric too.
        self._v_inverse = (inverse + inverse.T) / 2.0
        self._observations_since_refresh = 0
        self._theta = None
        return self._v_inverse

    def _inverse(self) -> np.ndarray:
        if self._v_inverse is None:
            return self._full_reinversion()
        return self._v_inverse

    def theta(self) -> np.ndarray:
        """Ridge-regression estimate ``theta = V^{-1} b`` (line 5)."""
        if self._theta is None:
            self._theta = self._inverse() @ self._b
        return self._theta

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def expected_rewards(self, contexts: np.ndarray) -> np.ndarray:
        """Point estimates ``theta' x_i`` without the exploration boost."""
        contexts = self._validate_contexts(contexts)
        return expected_rewards(self.theta(), contexts)

    def exploration_bonus(self, contexts: np.ndarray) -> np.ndarray:
        """The per-arm confidence width ``sqrt(x' V^{-1} x)``."""
        contexts = self._validate_contexts(contexts)
        return exploration_bonus(self._inverse(), contexts)

    def upper_confidence_scores(self, contexts: np.ndarray, alpha: float) -> np.ndarray:
        """UCB scores (line 8 of Algorithm 1)."""
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        contexts = self._validate_contexts(contexts)
        return ucb_scores(self.theta(), self._inverse(), contexts, alpha)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def update(self, contexts: np.ndarray, rewards: np.ndarray) -> None:
        """Rank-k update for every played arm (lines 12-13 of Algorithm 1)."""
        contexts = self._validate_contexts(contexts)
        rewards = np.asarray(rewards, dtype=float).reshape(-1)
        if len(rewards) != len(contexts):
            raise ValueError(
                f"got {len(contexts)} contexts but {len(rewards)} rewards"
            )
        if len(contexts) == 0:
            self.rounds_observed += 1
            return
        self._v = self._v + contexts.T @ contexts
        self._b = self._b + contexts.T @ rewards
        self._apply_inverse_update(contexts)
        self._theta = None
        self.rounds_observed += 1
        self.observations += len(contexts)

    def _apply_inverse_update(self, contexts: np.ndarray) -> None:
        """Fold ``k`` new contexts into the maintained inverse.

        Sherman–Morrison for a single row, Woodbury (one ``k x k`` solve) for a
        batch; falls back to a full re-inversion every ``refresh_interval``
        observations to wash out accumulated floating-point drift.
        """
        if self._v_inverse is None:
            # A forget() left the inverse dirty; rebuild lazily on next use.
            return
        self._observations_since_refresh += len(contexts)
        if self._observations_since_refresh >= self.refresh_interval:
            self._full_reinversion()
            return
        inverse = self._v_inverse
        if len(contexts) == 1:
            x = contexts[0]
            a = inverse @ x
            denominator = 1.0 + float(x @ a)
            inverse = inverse - np.outer(a, a) / denominator
        else:
            a = inverse @ contexts.T  # d x k
            capacitance = contexts @ a  # k x k
            capacitance.flat[:: len(contexts) + 1] += 1.0
            inverse = inverse - a @ np.linalg.solve(capacitance, a.T)
        self._v_inverse = (inverse + inverse.T) / 2.0

    def forget(self, keep_fraction: float) -> None:
        """Shrink learned knowledge towards the prior after a workload shift.

        ``keep_fraction`` = 0 resets the learner completely; 1 keeps
        everything.  Intermediate values blend the learned scatter matrix and
        response vector with their initial values, which both discounts stale
        reward estimates and re-inflates the exploration bonus.

        The blend is not a low-rank perturbation, so the maintained inverse is
        invalidated and rebuilt on next use — acceptable because forgetting
        only happens on (rare) detected workload shifts.
        """
        if not 0 <= keep_fraction <= 1:
            raise ValueError("keep_fraction must be in [0, 1]")
        prior = self.regularisation * np.eye(self.dimension)
        self._v = keep_fraction * self._v + (1 - keep_fraction) * prior
        self._b = keep_fraction * self._b
        self._v_inverse = None
        self._theta = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validate_contexts(self, contexts: np.ndarray) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=float)
        if contexts.ndim == 1:
            contexts = contexts.reshape(1, -1)
        if contexts.ndim != 2 or contexts.shape[1] != self.dimension:
            raise ValueError(
                f"contexts must have shape (k, {self.dimension}), got {contexts.shape}"
            )
        return contexts

    def tie_break(self, count: int) -> np.ndarray:
        """Tiny random jitter used only to break exact score ties deterministically."""
        return self._rng.uniform(0.0, 1e-9, size=count)
