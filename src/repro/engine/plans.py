"""Physical plan representation shared by the optimiser and the executor.

The optimiser (:mod:`repro.optimizer.planner`) *chooses* a plan using its own
estimated cardinalities; the executor (:mod:`repro.engine.execution`) then
*times* that same plan using true cardinalities.  Keeping the plan objects in
the engine package lets both layers share them without a circular import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .indexes import IndexDefinition
from .query import Query


class AccessMethod(Enum):
    """How a base table is read."""

    FULL_SCAN = "full_scan"
    INDEX_SEEK = "index_seek"
    INDEX_ONLY_SCAN = "index_only_scan"


class JoinMethod(Enum):
    """How an additional table is joined into the running intermediate result."""

    HASH_JOIN = "hash_join"
    INDEX_NESTED_LOOP = "index_nested_loop"


@dataclass
class TableAccessPlan:
    """Access path chosen for one base table of a query."""

    table: str
    method: AccessMethod
    index: IndexDefinition | None = None
    #: Number of leading index key columns restricted by predicates (seeks only).
    seek_prefix_length: int = 0
    #: Whether the chosen index covers every referenced column of the table.
    covering: bool = False
    #: Optimiser's estimate of rows produced by this access (after filters).
    estimated_rows: float = 0.0
    #: Optimiser's estimated cost of the access in model-seconds.
    estimated_seconds: float = 0.0

    def describe(self) -> str:
        if self.method is AccessMethod.FULL_SCAN:
            return f"FullScan({self.table})"
        index_id = self.index.index_id if self.index else "?"
        covering = ", covering" if self.covering else ""
        return f"{self.method.value}({self.table} via {index_id}{covering})"


@dataclass
class JoinStep:
    """One step of the left-deep join pipeline."""

    inner_table: str
    method: JoinMethod
    #: Index used to probe the inner table for INDEX_NESTED_LOOP joins.
    index: IndexDefinition | None = None
    #: Whether the probe index covers the inner table's referenced columns.
    covering: bool = False
    #: Optimiser's estimates, kept for explain output and regression analysis.
    estimated_outer_rows: float = 0.0
    estimated_result_rows: float = 0.0
    estimated_seconds: float = 0.0

    def describe(self) -> str:
        if self.method is JoinMethod.HASH_JOIN:
            return f"HashJoin(+{self.inner_table})"
        index_id = self.index.index_id if self.index else "?"
        return f"IndexNestedLoop(+{self.inner_table} via {index_id})"


@dataclass
class QueryPlan:
    """A complete left-deep plan for one query."""

    query: Query
    #: Access path per referenced table.
    accesses: dict[str, TableAccessPlan] = field(default_factory=dict)
    #: Join order: first element is the driving table, remaining are join steps.
    driving_table: str = ""
    join_steps: list[JoinStep] = field(default_factory=list)
    #: Optimiser's total estimated cost in model-seconds.
    estimated_seconds: float = 0.0

    @property
    def indexes_used(self) -> list[IndexDefinition]:
        """All distinct indexes referenced anywhere in the plan."""
        seen: dict[str, IndexDefinition] = {}
        for access in self.accesses.values():
            if access.index is not None:
                seen[access.index.index_id] = access.index
        for step in self.join_steps:
            if step.index is not None:
                seen[step.index.index_id] = step.index
        return list(seen.values())

    def access_for(self, table: str) -> TableAccessPlan | None:
        return self.accesses.get(table)

    def describe(self) -> str:
        parts = [self.accesses[self.driving_table].describe()] if self.driving_table else []
        parts.extend(step.describe() for step in self.join_steps)
        extra = [
            access.describe()
            for table, access in self.accesses.items()
            if table != self.driving_table
            and all(step.inner_table != table for step in self.join_steps)
        ]
        parts.extend(extra)
        return " -> ".join(parts) if parts else "(empty plan)"
