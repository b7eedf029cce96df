"""Hyper-parameters of the MAB index-tuning framework.

The paper stresses that the bandit needs only two hyper-parameters —
``lambda`` (ridge regularisation, whose influence vanishes as rounds
accumulate) and ``alpha`` (the exploration boost) — in contrast to the large
hyper-parameter space of deep-RL alternatives.  The remaining knobs below
control arm generation and the query store, and keep the same defaults across
every experiment in the repository.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class MabConfig:
    """Configuration of :class:`repro.core.tuner.MabTuner`."""

    #: Ridge regularisation of the shared linear model (C²UCB ``lambda``).
    regularisation: float = 1.0
    #: Base exploration boost (C²UCB ``alpha``).
    alpha: float = 2.0
    #: Per-round decay applied to the exploration boost; 1.0 disables decay.
    #: The paper reduces exploration over time ("reducing exploration with
    #: time"), which a mild geometric decay reproduces.
    alpha_decay: float = 0.99
    #: Smallest exploration boost the decay is allowed to reach.
    alpha_floor: float = 0.1

    #: Maximum number of key columns in a generated arm (combinations and
    #: permutations beyond this width add little and explode the arm count).
    max_index_width: int = 3
    #: Maximum number of permutations generated per (query, table) pair.
    max_arms_per_query_table: int = 24
    #: Whether covering variants (payload columns in an INCLUDE list) are added.
    include_covering_arms: bool = True

    #: Number of recent rounds whose templates form the queries of interest.
    qoi_window_rounds: int = 2
    #: Fraction of new templates in a round beyond which the workload is
    #: considered shifted and learned knowledge is (partially) forgotten.
    shift_detection_threshold: float = 0.6
    #: Factor applied to the learned statistics when a shift is detected
    #: (0 = forget everything, 1 = keep everything).
    forgetting_factor: float = 0.4

    #: Penalty factor applied to an arm's creation cost inside the reward.
    #: 1.0 reproduces the paper's reward exactly.
    creation_cost_weight: float = 1.0

    #: Random seed for tie-breaking.
    seed: int = 17

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{spec.name} must not be NaN")
        if self.regularisation <= 0:
            raise ValueError("regularisation must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0 < self.alpha_decay <= 1:
            raise ValueError("alpha_decay must be in (0, 1]")
        if not 0 <= self.alpha_floor < math.inf:
            raise ValueError("alpha_floor must be finite and non-negative")
        if self.max_index_width < 1:
            raise ValueError("max_index_width must be at least 1")
        if self.max_arms_per_query_table < 1:
            raise ValueError("max_arms_per_query_table must be at least 1")
        if self.qoi_window_rounds < 1:
            raise ValueError("qoi_window_rounds must be at least 1")
        if not 0 <= self.forgetting_factor <= 1:
            raise ValueError("forgetting_factor must be in [0, 1]")
        if not 0 <= self.shift_detection_threshold <= 1:
            raise ValueError("shift_detection_threshold must be in [0, 1]")
        if not 0 <= self.creation_cost_weight < math.inf:
            raise ValueError("creation_cost_weight must be finite and non-negative")

    def alpha_at(self, round_number: int) -> float:
        """Exploration boost used in the given (1-based) round."""
        decayed = self.alpha * (self.alpha_decay ** max(0, round_number - 1))
        return max(self.alpha_floor, decayed)

