"""Materialised table storage for the simulated DBMS.

A :class:`TableData` holds a *sample* of a table's rows as numpy column
arrays, together with the full (logical) row count.  Selectivities of
predicates are always measured on the sample — which therefore reflects real
skew and inter-column correlation — while row counts, page counts and byte
sizes are scaled to the full table via ``scale_multiplier``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import SchemaError, UnknownColumnError
from .query import Operator, Predicate
from .schema import Table

#: Logical page size used for all page-count accounting (bytes).
PAGE_SIZE_BYTES = 8192
#: B+-tree space overhead (interior nodes, fill factor).
BTREE_OVERHEAD = 1.35
#: Bytes of row pointer stored with every index entry.
ROW_POINTER_BYTES = 8


class IndexGeometry(NamedTuple):
    """The B+-tree figures of one index over one table's full row count."""

    #: Width of a single leaf entry (stored columns plus a row pointer).
    entry_width_bytes: int
    #: Estimated on-disk size of the materialised index.
    size_bytes: int
    leaf_pages: int
    #: Approximate root-to-leaf page reads for one seek.
    depth: int


def evaluate_predicate(values: np.ndarray, predicate: Predicate) -> np.ndarray:
    """Return a boolean mask of sample rows satisfying ``predicate``."""
    operator = predicate.operator
    if operator is Operator.EQ:
        return values == predicate.value
    if operator is Operator.LT:
        return values < predicate.value
    if operator is Operator.LE:
        return values <= predicate.value
    if operator is Operator.GT:
        return values > predicate.value
    if operator is Operator.GE:
        return values >= predicate.value
    if operator is Operator.BETWEEN:
        low, high = predicate.value
        return (values >= low) & (values <= high)
    if operator is Operator.IN:
        # An OR of equality masks: for the few values an IN list holds this
        # is several times faster than np.isin, with the same promotion.
        mask = np.zeros(values.shape, dtype=bool)
        for item in np.asarray(predicate.value):
            mask |= values == item
        return mask
    raise ValueError(f"unsupported operator: {operator}")


@dataclass(eq=False)
class TableData:
    """A table's materialised sample plus scale metadata.

    Parameters
    ----------
    table:
        Schema definition of the table.
    columns:
        Mapping column name -> numpy array of sample values.  All arrays must
        have the same length.
    full_row_count:
        Logical number of rows in the full-size table (e.g. 59,986,052 for
        TPC-H ``lineitem`` at SF 10).
    distinct_hints:
        Optional per-column distinct-value counts of the *full* table, as
        reported by the data generators.  Estimating the distinct count of a
        high-cardinality column from a small sample is notoriously unreliable
        (a skewed sample wildly under-counts), so when a hint is available it
        takes precedence.

    The sample arrays are made read-only on construction, so what is
    computed from them (and the schema) is memoised on the instance: the row
    width, each column's distinct count, each predicate set's selectivity
    and each index's B+-tree geometry.  A memo cannot go stale because
    nothing changes in place: growing a table (:meth:`Database.grow_table`)
    builds a new ``TableData`` with an empty memo, and
    :meth:`Database.tenant_view` siblings share one.  Equality and hashing
    are by identity, so an instance can key a memo held elsewhere (the cost
    model's full-scan times).
    """

    table: Table
    columns: dict[str, np.ndarray]
    full_row_count: int
    distinct_hints: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.full_row_count <= 0:
            raise SchemaError(f"table {self.table.name!r}: full_row_count must be positive")
        lengths = {len(array) for array in self.columns.values()}
        if not self.columns:
            raise SchemaError(f"table {self.table.name!r}: no column data supplied")
        if len(lengths) != 1:
            raise SchemaError(
                f"table {self.table.name!r}: column sample arrays have differing lengths"
            )
        for column_name in self.columns:
            if not self.table.has_column(column_name):
                raise UnknownColumnError(self.table.name, column_name)
        self._sample_rows = lengths.pop()
        if self._sample_rows == 0:
            raise SchemaError(f"table {self.table.name!r}: sample must be non-empty")
        if self.full_row_count < self._sample_rows:
            # A sample can never be larger than the table it represents.
            self.full_row_count = self._sample_rows
        for array in self.columns.values():
            array.setflags(write=False)
        self._row_width_bytes = self.table.row_width_bytes
        self._distinct_counts: dict[str, int] = {}
        #: Selectivity per set of this table's predicates.  Only the float is
        #: kept: a selection mask would cost a sample's worth of bytes each.
        self._selectivities: dict[frozenset[Predicate], float] = {}
        self._index_geometry: dict[tuple[str, ...], IndexGeometry] = {}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.table.name

    @property
    def sample_rows(self) -> int:
        return self._sample_rows

    @property
    def scale_multiplier(self) -> float:
        """Full rows represented by each sample row."""
        return self.full_row_count / self._sample_rows

    def column_array(self, column_name: str) -> np.ndarray:
        try:
            return self.columns[column_name]
        except KeyError:
            raise UnknownColumnError(self.table.name, column_name) from None

    def has_column_data(self, column_name: str) -> bool:
        return column_name in self.columns

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    @property
    def row_width_bytes(self) -> int:
        return self._row_width_bytes

    @property
    def total_bytes(self) -> int:
        return self.full_row_count * self.row_width_bytes

    @property
    def pages(self) -> int:
        """Number of heap pages occupied by the full table."""
        return max(1, math.ceil(self.total_bytes / PAGE_SIZE_BYTES))

    def width_of(self, column_names: Iterable[str]) -> int:
        """Total byte width of the named columns."""
        return sum(self.table.column(name).width for name in column_names)

    def index_geometry(self, columns: tuple[str, ...]) -> IndexGeometry:
        """Geometry of a B+-tree index storing ``columns`` (key, then INCLUDE).

        Memoised per column tuple: the figures depend only on those
        columns' widths and the full row count.
        """
        geometry = self._index_geometry.get(columns)
        if geometry is None:
            entry_width = self.width_of(columns) + ROW_POINTER_BYTES
            size = int(entry_width * self.full_row_count * BTREE_OVERHEAD)
            leaf_pages = max(1, int(size / PAGE_SIZE_BYTES))
            entries_per_page = max(2, PAGE_SIZE_BYTES // max(1, entry_width))
            depth = 1
            pages = leaf_pages
            while pages > 1:
                pages = max(1, pages // entries_per_page)
                depth += 1
            geometry = self._index_geometry[columns] = IndexGeometry(
                entry_width, size, leaf_pages, min(depth, 6)
            )
        return geometry

    # ------------------------------------------------------------------ #
    # true statistics measured on the sample
    # ------------------------------------------------------------------ #
    def selection_mask(self, predicates: tuple[Predicate, ...]) -> np.ndarray:
        """Boolean mask of sample rows satisfying the conjunction of ``predicates``."""
        mask = np.ones(self._sample_rows, dtype=bool)
        for predicate in predicates:
            if predicate.table != self.table.name:
                continue
            values = self.column_array(predicate.column)
            mask &= evaluate_predicate(values, predicate)
        return mask

    def true_selectivity(self, predicates: tuple[Predicate, ...]) -> float:
        """True combined selectivity of conjunctive predicates, measured on the sample.

        A minimum selectivity of half a sample row is used so that empty
        sample matches still map to a small positive row estimate (the full
        table may contain a handful of matching rows the sample missed).
        """
        relevant = frozenset(p for p in predicates if p.table == self.table.name)
        if not relevant:
            return 1.0
        selectivity = self._selectivities.get(relevant)
        if selectivity is None:
            matched = int(self.selection_mask(tuple(relevant)).sum())
            floor = 0.5 / self._sample_rows
            selectivity = self._selectivities[relevant] = max(floor, matched / self._sample_rows)
        return selectivity

    def true_cardinality(self, predicates: tuple[Predicate, ...]) -> int:
        """Estimated number of full-table rows satisfying the predicates."""
        return max(1, int(round(self.true_selectivity(predicates) * self.full_row_count)))

    def distinct_count(self, column_name: str) -> int:
        """Distinct values of a column in the full table.

        Prefers the generator-provided hint (exact for synthetic data); when no
        hint exists, falls back to the sample distinct count, scaled
        conservatively: if the sample looks unique we assume the full column
        is unique.
        """
        count = self._distinct_counts.get(column_name)
        if count is None:
            count = self._distinct_counts[column_name] = self._estimate_distinct(column_name)
        return count

    def _estimate_distinct(self, column_name: str) -> int:
        hint = self.distinct_hints.get(column_name)
        if hint is not None:
            return max(1, min(int(hint), self.full_row_count))
        values = self.column_array(column_name)
        sample_distinct = int(len(np.unique(values)))
        if sample_distinct >= 0.95 * self._sample_rows:
            return self.full_row_count
        return sample_distinct

    def value_range(self, column_name: str) -> tuple[float, float]:
        values = self.column_array(column_name)
        return float(values.min()), float(values.max())

    def summary(self) -> dict[str, object]:
        """A small serialisable summary used in reports and examples."""
        return {
            "table": self.table.name,
            "full_row_count": self.full_row_count,
            "sample_rows": self.sample_rows,
            "row_width_bytes": self.row_width_bytes,
            "total_mb": round(self.total_bytes / (1024 * 1024), 2),
            "pages": self.pages,
        }


def build_table_data(
    table: Table,
    sample: Mapping[str, np.ndarray],
    full_row_count: int,
    distinct_hints: Mapping[str, int] | None = None,
) -> TableData:
    """Convenience constructor validating that every schema column has data."""
    missing = [column.name for column in table.columns if column.name not in sample]
    if missing:
        raise SchemaError(
            f"table {table.name!r}: no generated data for columns {missing!r}"
        )
    return TableData(
        table=table,
        columns=dict(sample),
        full_row_count=full_row_count,
        distinct_hints=dict(distinct_hints or {}),
    )
