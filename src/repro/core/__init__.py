"""The paper's contribution: bandit-based online index selection."""

from .arms import Arm, ArmGenerator
from .config import MabConfig
from .context import DERIVED_FEATURE_NAMES, ContextBuilder
from .linear_bandit import C2UCB
from .oracle import GreedyOracle, OracleResult
from .query_store import QueryStore, RoundSummary, TemplateRecord
from .rewards import RoundRewards, compute_round_rewards
from .tuner import MabTuner

__all__ = [
    "Arm",
    "ArmGenerator",
    "C2UCB",
    "ContextBuilder",
    "DERIVED_FEATURE_NAMES",
    "GreedyOracle",
    "MabConfig",
    "MabTuner",
    "OracleResult",
    "QueryStore",
    "RoundRewards",
    "RoundSummary",
    "TemplateRecord",
    "compute_round_rewards",
]
