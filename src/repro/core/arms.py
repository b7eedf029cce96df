"""Workload-driven arm (candidate index) generation.

Rather than enumerating every column combination of the schema, arms are
generated from the *observed* queries of interest: combinations and
permutations of each query's predicate columns (filter and join predicates),
with and without the query's payload attributes as INCLUDE columns (covering
variants).  This is the paper's "dynamic arms from workload predicates"
mechanism, which keeps the action space small and exploits the natural skew of
real workloads.

An arm's *structure* — which indexes a (query, table) pair motivates, and
whether each one covers the query — depends only on that pair's filter, join
and payload columns and on the generation settings, never on parameter values
or template ids.  :func:`arm_shapes` computes it once per distinct (table,
columns) in one process-wide cache, and :func:`shape_arm_lists` gathers a
whole query shape's arms into one :class:`ShapeArms` list per shape, shared by
every generator with the same settings (tuners, fleet tenants and the
baselines alike).  The caches hold only frozen values; :class:`ArmGenerator`
merges the round's arms into the caller's mutable :class:`Arm` registry (or
into fresh arms), so merging can never corrupt them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.engine.indexes import IndexDefinition
from repro.engine.query import Query, QueryShape, ShapeMemo

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

    @property
    def index_id(self) -> str:
        return self.index.index_id

    @property
    def table(self) -> str:
        return self.index.table


@functools.cache
def arm_shapes(
    table: str,
    predicate_columns: tuple[str, ...],
    join_columns: tuple[str, ...],
    payload_columns: tuple[str, ...],
    max_index_width: int,
    max_arms_per_query_table: int,
    include_covering_arms: bool,
) -> tuple[tuple[IndexDefinition, bool], ...]:
    """The indexes one (query, table) pair motivates, in generation order.

    Args:
        table: The table the columns belong to.
        predicate_columns: The query's filter-predicate columns on ``table``.
        join_columns: The query's join columns on ``table``.
        payload_columns: The query's payload columns on ``table``.
        max_index_width: :attr:`MabConfig.max_index_width`.
        max_arms_per_query_table: :attr:`MabConfig.max_arms_per_query_table`.
        include_covering_arms: :attr:`MabConfig.include_covering_arms`.

    Returns:
        ``(index, covers)`` pairs: every permutation of up to
        ``max_index_width`` key candidates (predicate columns first, then
        join columns), each followed by its covering variant when enabled,
        stopping after ``max_arms_per_query_table``; ``covers`` says whether
        the index stores every column the query touches on ``table``.
    """
    key_candidates = predicate_columns + tuple(
        column for column in join_columns if column not in predicate_columns
    )
    include = tuple(column for column in payload_columns if column not in key_candidates)
    referenced = set(key_candidates) | set(payload_columns)
    variants: list[tuple[str, ...]] = [()]
    if include_covering_arms and include:
        variants.append(include)

    shapes: list[tuple[IndexDefinition, bool]] = []
    for width in range(1, min(max_index_width, len(key_candidates)) + 1):
        for combination in itertools.combinations(key_candidates, width):
            for key_columns in itertools.permutations(combination):
                for include_columns in variants:
                    index = IndexDefinition(table, key_columns, include_columns)
                    shapes.append((index, referenced <= set(index.all_columns)))
                    if len(shapes) == max_arms_per_query_table:
                        return tuple(shapes)
    return tuple(shapes)


class ShapeArms(NamedTuple):
    """The arms one query shape motivates under one set of generation settings."""

    #: ``{index_id: index}`` of every arm, in generation order (table by
    #: table in shape order, then :func:`arm_shapes` order).
    indexes: dict[str, IndexDefinition]
    #: The ids of the arms that store every column the query touches on
    #: their table.
    covering: tuple[str, ...]


@functools.cache
def shape_arm_lists(
    max_index_width: int, max_arms_per_query_table: int, include_covering_arms: bool
) -> ShapeMemo[ShapeArms]:
    """The process-wide memo of :class:`ShapeArms` per shape, for one set of settings."""

    def derive(shape: QueryShape) -> ShapeArms:
        indexes: dict[str, IndexDefinition] = {}
        covering: list[str] = []
        for table, table_shape in shape.items():
            for index, covers in arm_shapes(
                table,
                table_shape.predicate_columns,
                table_shape.join_columns,
                table_shape.payload_columns,
                max_index_width,
                max_arms_per_query_table,
                include_covering_arms,
            ):
                indexes[index.index_id] = index
                if covers:
                    covering.append(index.index_id)
        return ShapeArms(indexes, tuple(covering))

    return ShapeMemo(derive)


class ArmGenerator:
    """Generates candidate-index arms from queries of interest."""

    def __init__(self, config: MabConfig | None = None) -> None:
        self.config = config or MabConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(
        self, queries: list[Query], registry: dict[str, Arm] | None = None
    ) -> dict[str, Arm]:
        """The round's arm pool for a set of queries of interest.

        Args:
            queries: The current queries of interest.
            registry: ``{index_id: Arm}`` of every arm seen so far, merged
                in place: an unseen index id gets a new :class:`Arm`, and a
                known arm gets a fresh covering-query set the first time it
                appears in the round, while the round's templates are
                unioned into its ``source_templates``.  ``None`` gives fresh
                arms on every call.

        Returns:
            ``{index_id: Arm}`` of the arms the queries motivate, in order of
            first appearance (the *pool order* that context rows and
            tie-break jitter use), holding the registry's own objects.
        """
        config = self.config
        arm_lists = shape_arm_lists(
            config.max_index_width,
            config.max_arms_per_query_table,
            config.include_covering_arms,
        )
        lists = [arm_lists(query.shape) for query in queries]
        # One ordered dedupe in C: an updated key keeps its first position.
        indexes: dict[str, IndexDefinition] = {}
        for arm_list in lists:
            indexes.update(arm_list.indexes)
        if registry is None:
            registry = {}
        pool: dict[str, Arm] = {}
        for index_id, index in indexes.items():
            arm = registry.get(index_id)
            if arm is None:
                arm = registry[index_id] = Arm(index=index)
            else:
                arm.covering_for_queries = set()
            pool[index_id] = arm
        for query, arm_list in zip(queries, lists):
            template_id = query.template_id
            for index_id in arm_list.indexes:
                pool[index_id].source_templates.add(template_id)
            query_id = query.query_id
            for index_id in arm_list.covering:
                pool[index_id].covering_for_queries.add(query_id)
        return pool
