"""Workload-driven arm (candidate index) generation.

Rather than enumerating every column combination of the schema, arms are
generated from the *observed* queries of interest: combinations and
permutations of each query's predicate columns (filter and join predicates),
with and without the query's payload attributes as INCLUDE columns (covering
variants).  This is the paper's "dynamic arms from workload predicates"
mechanism, which keeps the action space small and exploits the natural skew of
real workloads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.engine.indexes import IndexDefinition
from repro.engine.query import Query

from .config import MabConfig

@dataclass
class Arm:
    """A candidate index plus bookkeeping about the queries that motivated it."""

    index: IndexDefinition
    #: Template ids of the queries of interest this arm was generated for.
    source_templates: set[str] = field(default_factory=set)
    #: Query ids (within the current QoI) for which this arm is a covering index.
    covering_for_queries: set[str] = field(default_factory=set)
    #: Rounds in which the optimiser actually used this arm (for context D3).
    usage_rounds: int = 0
    #: Last round in which the arm was generated (kept for pruning/debugging).
    last_generated_round: int = 0

    @property
    def index_id(self) -> str:
        return self.index.index_id

    @property
    def table(self) -> str:
        return self.index.table


class ArmGenerator:
    """Generates candidate-index arms from queries of interest."""

    def __init__(self, config: MabConfig | None = None) -> None:
        self.config = config or MabConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def arms_for_query(self, query: Query) -> list[Arm]:
        """All arms motivated by a single query.

        Args:
            query: One parsed query; its per-table filter/join predicate
                columns seed the key permutations and its payload columns the
                covering (INCLUDE) variants.

        Returns:
            Fresh :class:`Arm` objects (at most
            :attr:`MabConfig.max_arms_per_query_table` per referenced table),
            each tagged with the query's template id.
        """
        arms: list[Arm] = []
        for table in query.tables:
            arms.extend(self._arms_for_query_table(query, table))
        return arms

    def generate(self, queries: list[Query]) -> dict[str, Arm]:
        """Arms for a set of queries of interest, merged by index identity.

        Args:
            queries: The current queries of interest.

        Returns:
            ``{index_id: Arm}`` where arms motivated by several queries carry
            the union of their source templates and covering-query sets.
        """
        merged: dict[str, Arm] = {}
        for query in queries:
            for arm in self.arms_for_query(query):
                existing = merged.get(arm.index_id)
                if existing is None:
                    merged[arm.index_id] = arm
                else:
                    existing.source_templates |= arm.source_templates
                    existing.covering_for_queries |= arm.covering_for_queries
        return merged

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _arms_for_query_table(self, query: Query, table: str) -> list[Arm]:
        predicate_columns = list(query.predicate_columns_for(table))
        join_columns = [
            column for column in query.join_columns_for(table)
            if column not in predicate_columns
        ]
        key_candidates = predicate_columns + join_columns
        if not key_candidates:
            return []
        payload_columns = tuple(
            column for column in query.payload_columns_for(table)
            if column not in key_candidates
        )
        referenced = query.referenced_columns_for(table)

        arms: list[Arm] = []
        seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
        budget = self.config.max_arms_per_query_table

        def add(key_columns: tuple[str, ...], include_columns: tuple[str, ...]) -> None:
            if len(arms) >= budget:
                return
            signature = (key_columns, include_columns)
            if signature in seen:
                return
            seen.add(signature)
            index = IndexDefinition(table, key_columns, include_columns)
            arm = Arm(index=index, source_templates={query.template_id})
            if index.covers_columns(referenced):
                arm.covering_for_queries.add(query.query_id)
            arms.append(arm)

        max_width = min(self.config.max_index_width, len(key_candidates))
        for width in range(1, max_width + 1):
            for combination in itertools.combinations(key_candidates, width):
                for permutation in itertools.permutations(combination):
                    add(tuple(permutation), ())
                    if self.config.include_covering_arms and payload_columns:
                        add(tuple(permutation), payload_columns)
                    if len(arms) >= budget:
                        return arms
        return arms
