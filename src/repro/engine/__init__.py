"""Simulated analytical DBMS substrate.

This package provides everything the paper's experiments need from a database
system: schemas, generated data, secondary indexes under a memory budget, a
true cost model, and an executor that reports per-query and per-index elapsed
times.  The query *optimiser* (which works from estimated statistics and
exposes the what-if interface) lives in :mod:`repro.optimizer`.
"""

from .backend import (
    BackendLike,
    BackendProfile,
    PlacementLike,
    UnknownBackendError,
    UnknownPlacementTableError,
    get_backend,
    register_backend,
    registered_backend_names,
    resolve_backend,
    resolve_placement,
)
from .catalog import ConfigurationChange, Database
from .cost_model import CostModel, pages_touched_by_random_fetches
from .datagen import (
    Categorical,
    ColumnGenerator,
    DateRange,
    Derived,
    ForeignKeyRef,
    SequentialKey,
    TableSpec,
    UniformFloat,
    UniformInt,
    ZipfianInt,
    scale_rows,
)
from .errors import (
    DataGenerationError,
    DuplicateIndexError,
    EngineError,
    ExecutionError,
    MemoryBudgetExceededError,
    SchemaError,
    UnknownColumnError,
    UnknownIndexError,
    UnknownTableError,
)
from .execution import ExecutionResult, Executor, TableAccessResult
from .indexes import IndexDefinition, deduplicate
from .plans import AccessMethod, JoinMethod, JoinStep, QueryPlan, TableAccessPlan
from .query import JoinPredicate, Operator, Predicate, Query
from .schema import Column, ColumnType, ForeignKey, Schema, Table
from .statistics import (
    ColumnStatistics,
    StatisticsCatalog,
    TableStatistics,
    build_column_statistics,
    build_table_statistics,
)
from .storage import PAGE_SIZE_BYTES, TableData, build_table_data, evaluate_predicate

__all__ = [
    "AccessMethod",
    "BackendLike",
    "BackendProfile",
    "Categorical",
    "Column",
    "ColumnGenerator",
    "ColumnStatistics",
    "ColumnType",
    "ConfigurationChange",
    "CostModel",
    "Database",
    "DataGenerationError",
    "DateRange",
    "Derived",
    "DuplicateIndexError",
    "EngineError",
    "ExecutionError",
    "ExecutionResult",
    "Executor",
    "ForeignKey",
    "ForeignKeyRef",
    "IndexDefinition",
    "JoinMethod",
    "JoinPredicate",
    "JoinStep",
    "MemoryBudgetExceededError",
    "Operator",
    "PAGE_SIZE_BYTES",
    "PlacementLike",
    "Predicate",
    "Query",
    "QueryPlan",
    "Schema",
    "SchemaError",
    "SequentialKey",
    "StatisticsCatalog",
    "Table",
    "TableAccessPlan",
    "TableAccessResult",
    "TableData",
    "TableSpec",
    "TableStatistics",
    "UniformFloat",
    "UniformInt",
    "UnknownBackendError",
    "UnknownPlacementTableError",
    "UnknownColumnError",
    "UnknownIndexError",
    "UnknownTableError",
    "ZipfianInt",
    "build_column_statistics",
    "build_table_data",
    "build_table_statistics",
    "deduplicate",
    "evaluate_predicate",
    "get_backend",
    "pages_touched_by_random_fetches",
    "register_backend",
    "registered_backend_names",
    "resolve_backend",
    "resolve_placement",
    "scale_rows",
]
