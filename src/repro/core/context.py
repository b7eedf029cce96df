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
from typing import Sequence

import numpy as np

from repro.engine.catalog import Database
from repro.engine.indexes import IndexDefinition
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
        #: Per-index static part-1 encoding, computed once per index id
        #: across all rounds (an index's key columns never change): row
        #: ``_key_rows[index_id]`` of ``_key_slots`` holds the schema slot of
        #: each key column ``j`` and the same row of ``_key_values`` its
        #: ``10^-j``.  Short keys and columns without a slot are padded with
        #: slot ``_n_columns``, which no workload mask ever sets.
        self._key_rows: dict[str, int] = {}
        self._key_slots = np.empty((0, 0), dtype=np.intp)
        self._key_values = np.empty((0, 0))

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

    def _key_table_rows(self, indexes: Sequence[IndexDefinition]) -> np.ndarray:
        """The key-table row of each index, encoding unseen indexes first."""
        rows = self._key_rows
        found = [rows.get(index.index_id) for index in indexes]
        if None in found:
            added: list[IndexDefinition] = []
            for position, index in enumerate(indexes):
                if found[position] is None:
                    row = rows.get(index.index_id)
                    if row is None:
                        row = rows[index.index_id] = len(rows)
                        added.append(index)
                    found[position] = row
            self._encode_keys(added)
        return np.asarray(found, dtype=np.intp)

    def _encode_keys(self, indexes: list[IndexDefinition]) -> None:
        width = max(self._key_slots.shape[1], *(len(index.key_columns) for index in indexes))
        slots = np.full((len(indexes), width), self._n_columns, dtype=np.intp)
        values = np.zeros((len(indexes), width))
        for row, index in enumerate(indexes):
            for position, column in enumerate(index.key_columns):
                slot = self.column_position(index.table, column)
                if slot is not None:
                    slots[row, position] = slot
                    values[row, position] = 10.0 ** (-position)
        pad = width - self._key_slots.shape[1]
        self._key_slots = np.vstack(
            [np.pad(self._key_slots, ((0, 0), (0, pad)), constant_values=self._n_columns), slots]
        )
        self._key_values = np.vstack([np.pad(self._key_values, ((0, 0), (0, pad))), values])

    def creation_context(
        self, arm: Arm, database: Database, size_bytes: int | None = None
    ) -> np.ndarray:
        """Context used for the creation-cost observation of a newly built arm.

        Index-creation cost depends (almost) only on the index's size, not on
        which workload columns it serves, so the creation penalty is attributed
        to a context that activates only the relative-size feature.  This keeps
        the column-prefix weights clean estimators of *query-time* benefit.
        ``size_bytes`` is the arm's :meth:`Database.index_size_bytes` when the
        caller has already read it; it is read here otherwise.
        """
        if size_bytes is None:
            size_bytes = database.index_size_bytes(arm.index)
        context = np.zeros(self.dimension)
        context[self.size_feature_index] = size_bytes / max(1, database.data_size_bytes)
        return context

    # ------------------------------------------------------------------ #
    # context construction
    # ------------------------------------------------------------------ #
    def _workload_mask(self, queries: list[Query]) -> np.ndarray:
        """Which schema slots are predicate (filter + join) columns of the queries.

        One entry longer than the schema: the last entry is the key tables'
        padding slot and stays ``False``.
        """
        columns: set[tuple[str, str]] = set()
        for query in queries:
            for table, table_shape in query.shape.items():
                for column in table_shape.predicate_columns:
                    columns.add((table, column))
                for column in table_shape.join_columns:
                    columns.add((table, column))
        positions = self._column_positions
        mask = np.zeros(self._n_columns + 1, dtype=bool)
        mask[[positions[column] for column in columns if column in positions]] = True
        return mask

    def build(self, arm: Arm, queries: list[Query], database: Database) -> np.ndarray:
        """Context vector for one arm under the current queries of interest."""
        return self.build_matrix([arm], queries, database)[0]

    def build_matrix(
        self,
        arms: Sequence[Arm],
        queries: list[Query],
        database: Database,
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Context matrix (one row per arm, in ``arms`` order) for the current round.

        Args:
            arms: The round's arm pool.
            queries: The current queries of interest.
            database: The database the arms would be built in.
            sizes: Each arm's :meth:`Database.index_size_bytes`, when the
                caller has already read them this round; read here otherwise.

        The part-1 pairs of every arm come from the per-index key tables and
        are written with one masked assignment against the round's
        workload-column mask; the derived columns are filled from per-arm
        vectors.  Features that are zero are left as allocated.
        """
        count = len(arms)
        matrix = np.zeros((count, self.dimension))
        if not count:
            return matrix
        indexes = [arm.index for arm in arms]
        # Part 1: prefix encoding over the key columns that are predicate
        # columns of the queries of interest.
        rows = self._key_table_rows(indexes)
        slots = self._key_slots[rows]
        arm_positions, key_positions = np.nonzero(self._workload_mask(queries)[slots])
        matrix[arm_positions, slots[arm_positions, key_positions]] = self._key_values[
            rows[arm_positions], key_positions
        ]
        # Part 2: derived features.
        matrix[:, self.covering_feature_index] = np.fromiter(
            (bool(arm.covering_for_queries) for arm in arms), dtype=bool, count=count
        )
        if sizes is None:
            sizes = [database.index_size_bytes(index) for index in indexes]
        relative_size = np.asarray(sizes, dtype=float) / max(1, database.data_size_bytes)
        materialised = np.zeros(len(self._key_rows), dtype=bool)
        materialised[
            [
                self._key_rows[index.index_id]
                for index in database.materialised_indexes
                if index.index_id in self._key_rows
            ]
        ] = True
        relative_size[materialised[rows]] = 0.0
        matrix[:, self.size_feature_index] = relative_size
        usage = np.fromiter((arm.usage_rounds for arm in arms), dtype=np.int64, count=count)
        used = np.flatnonzero(usage)
        matrix[used, self.usage_feature_index] = [
            math.log1p(rounds) for rounds in usage[used].tolist()
        ]
        return matrix
