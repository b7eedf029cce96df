"""Cost-based query optimiser with a what-if (hypothetical index) interface."""

from .cardinality import DEFAULT_UNKNOWN_SELECTIVITY, MIN_SELECTIVITY, CardinalityEstimator
from .planner import Planner

__all__ = [
    "CardinalityEstimator",
    "DEFAULT_UNKNOWN_SELECTIVITY",
    "MIN_SELECTIVITY",
    "Planner",
]
