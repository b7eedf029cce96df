"""Benchmark workloads and workload sequencers.

Provides the paper's five evaluation benchmarks (TPC-H, TPC-H Skew, SSB,
TPC-DS, IMDb/JOB) as schema + data-generator + query-template bundles, and the
three workload regimes (static, dynamic shifting, dynamic random).
"""

from .base import DEFAULT_SAMPLE_ROWS, Benchmark
from .generator import (
    RandomWorkload,
    ShiftingWorkload,
    StaticWorkload,
    WorkloadRound,
    WorkloadSequence,
    round_to_round_repeat_rate,
)
from .registry import (
    BENCHMARK_NAMES,
    UnknownStressorError,
    available_benchmarks,
    available_stressors,
    get_benchmark,
    get_stressor,
)
from .stress import (
    ChurnWorkload,
    FlashTrafficWorkload,
    SchemaGrowthWorkload,
    SeasonalWorkload,
    TableGrowthEvent,
    TierMigrationEvent,
    TierMigrationWorkload,
    query_fingerprint,
    round_fingerprint,
    sequence_fingerprint,
)
from .templates import (
    PredicateTemplate,
    QueryTemplate,
    ValueMode,
    between,
    bottom_fraction,
    eq,
    in_list,
    join,
    top_fraction,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Benchmark",
    "ChurnWorkload",
    "DEFAULT_SAMPLE_ROWS",
    "FlashTrafficWorkload",
    "PredicateTemplate",
    "QueryTemplate",
    "RandomWorkload",
    "SchemaGrowthWorkload",
    "SeasonalWorkload",
    "ShiftingWorkload",
    "StaticWorkload",
    "TableGrowthEvent",
    "TierMigrationEvent",
    "TierMigrationWorkload",
    "UnknownStressorError",
    "ValueMode",
    "WorkloadRound",
    "WorkloadSequence",
    "available_benchmarks",
    "available_stressors",
    "between",
    "bottom_fraction",
    "eq",
    "get_benchmark",
    "get_stressor",
    "in_list",
    "join",
    "query_fingerprint",
    "round_fingerprint",
    "round_to_round_repeat_rate",
    "sequence_fingerprint",
    "top_fraction",
]
