"""Context engineering for candidate-index arms (Section IV of the paper).

The context of an arm has two parts:

* **Part 1 — indexed-column prefix encoding.**  One component per schema
  column.  A component is ``10^-j`` when the corresponding column is the
  ``j``-th key column of the arm (0-based) *and* is a predicate column of the
  current queries of interest; it is 0 otherwise — including when the column
  is only present to cover the payload.  This encodes that two indexes are
  similar when they share a key *prefix*, not merely a column set.

* **Part 2 — derived statistical information.**  A covering-index flag, the
  estimated index size relative to the database size (0 when the index is
  already materialised, so that re-selecting an existing index looks cheap),
  and the arm's usage count from previous rounds.

The shared linear model of C²UCB turns these features into reward predictions
for arms that have never been played.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.catalog import Database
from repro.engine.query import Query
from repro.engine.schema import Schema

from .arms import Arm

#: Names of the derived (part 2) features, in order.
DERIVED_FEATURE_NAMES = ("is_covering", "relative_size", "usage_count")


class ContextBuilder:
    """Builds the fixed-dimension context vectors used by the bandit."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._column_positions: dict[tuple[str, str], int] = {}
        for table in schema.tables:
            for column in table.columns:
                self._column_positions[(table.name, column.name)] = len(self._column_positions)
        self._n_columns = len(self._column_positions)
        #: Per-arm static part-1 encoding: (column, slot, 10^-position) for
        #: every key column with a schema slot.  An arm's key columns never
        #: change, so this is computed once per arm id across all rounds.
        self._key_slots: dict[str, tuple[tuple[str, int, float], ...]] = {}

    # ------------------------------------------------------------------ #
    # dimensions
    # ------------------------------------------------------------------ #
    @property
    def derived_feature_count(self) -> int:
        return len(DERIVED_FEATURE_NAMES)

    @property
    def dimension(self) -> int:
        return self._n_columns + self.derived_feature_count

    @property
    def covering_feature_index(self) -> int:
        return self._n_columns + DERIVED_FEATURE_NAMES.index("is_covering")

    @property
    def size_feature_index(self) -> int:
        """Slot of the relative-size feature (used to attribute creation costs)."""
        return self._n_columns + DERIVED_FEATURE_NAMES.index("relative_size")

    @property
    def usage_feature_index(self) -> int:
        return self._n_columns + DERIVED_FEATURE_NAMES.index("usage_count")

    def column_position(self, table: str, column: str) -> int | None:
        return self._column_positions.get((table, column))

    def _arm_key_slots(self, arm: Arm) -> tuple[tuple[str, int, float], ...]:
        slots = self._key_slots.get(arm.index_id)
        if slots is None:
            slots = tuple(
                (column, slot, 10.0 ** (-position))
                for position, column in enumerate(arm.index.key_columns)
                if (slot := self.column_position(arm.table, column)) is not None
            )
            self._key_slots[arm.index_id] = slots
        return slots

    @staticmethod
    def _hypothetical_relative_size(arm: Arm, database: Database) -> float:
        # Both database calls are O(1) cached lookups (invalidated by
        # Database.refresh_statistics), so no builder-level cache is needed.
        return database.index_size_bytes(arm.index) / max(1, database.data_size_bytes)

    def creation_context(self, arm: Arm, database: Database) -> np.ndarray:
        """Context used for the creation-cost observation of a newly built arm.

        Index-creation cost depends (almost) only on the index's size, not on
        which workload columns it serves, so the creation penalty is attributed
        to a context that activates only the relative-size feature.  This keeps
        the column-prefix weights clean estimators of *query-time* benefit.
        """
        context = np.zeros(self.dimension)
        context[self.size_feature_index] = self._hypothetical_relative_size(arm, database)
        return context

    # ------------------------------------------------------------------ #
    # context construction
    # ------------------------------------------------------------------ #
    def predicate_columns(self, queries: list[Query]) -> dict[str, set[str]]:
        """Predicate (filter + join) columns per table across the queries of interest."""
        columns: dict[str, set[str]] = {}
        for query in queries:
            for table in query.tables:
                table_columns = columns.setdefault(table, set())
                table_columns.update(query.predicate_columns_for(table))
                table_columns.update(query.join_columns_for(table))
        return columns

    def build(self, arm: Arm, queries: list[Query], database: Database) -> np.ndarray:
        """Context vector for one arm under the current queries of interest."""
        return self.build_matrix([arm], queries, database)[0]

    def build_matrix(
        self,
        arms: list[Arm],
        queries: list[Query],
        database: Database,
    ) -> np.ndarray:
        """Context matrix (one row per arm, in ``arms`` order) for the current round.

        The matrix is allocated once and each row is written in place from
        the arm's cached key slots and its derived features; features that
        are zero are left as allocated.
        """
        predicate_columns = self.predicate_columns(queries)
        matrix = np.zeros((len(arms), self.dimension))
        covering = self.covering_feature_index
        size = self.size_feature_index
        usage = self.usage_feature_index
        for row, arm in zip(matrix, arms):
            # Part 1: prefix encoding over the arm's key columns (cached slots).
            workload_columns = predicate_columns.get(arm.table, ())
            for column, slot, value in self._arm_key_slots(arm):
                if column in workload_columns:
                    row[slot] = value
            # Part 2: derived features.
            if arm.covering_for_queries:
                row[covering] = 1.0
            if not database.has_index(arm.index):
                row[size] = self._hypothetical_relative_size(arm, database)
            if arm.usage_rounds:
                row[usage] = math.log1p(arm.usage_rounds)
        return matrix
