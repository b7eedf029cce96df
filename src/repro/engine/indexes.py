"""Secondary-index definitions, size estimation and creation-cost inputs.

An :class:`IndexDefinition` is a value object (hashable, order-sensitive key
columns plus unordered INCLUDE columns).  It is used both by the bandit's arm
generation ("arms are indices") and by the engine when materialising a
configuration.  Size and creation-cost figures are derived from the table's
storage metadata so that the memory-budget constraint and the creation-time
component of the reward are grounded in the same accounting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import SchemaError
from .storage import IndexGeometry, TableData


@dataclass(frozen=True)
class IndexDefinition:
    """A (possibly covering) secondary B+-tree index.

    Parameters
    ----------
    table:
        Name of the indexed table.
    key_columns:
        Ordered key columns.  Order matters: an index on ``(a, b)`` supports a
        seek on ``a`` or on ``(a, b)`` but not on ``b`` alone.
    include_columns:
        Non-key columns stored in the leaves (SQL Server-style INCLUDE list)
        to make the index covering for a wider set of queries.
    """

    table: str
    key_columns: tuple[str, ...]
    include_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise SchemaError("an index must have at least one key column")
        if len(set(self.key_columns)) != len(self.key_columns):
            raise SchemaError(f"duplicate key columns in index on {self.table!r}")
        overlap = set(self.key_columns) & set(self.include_columns)
        if overlap:
            raise SchemaError(
                f"index on {self.table!r}: columns {sorted(overlap)!r} appear in both "
                "the key and the INCLUDE list"
            )

    # ------------------------------------------------------------------ #
    # identity and structure
    # ------------------------------------------------------------------ #
    @functools.cached_property
    def index_id(self) -> str:
        """Canonical identifier, e.g. ``ix_lineitem_l_shipdate_l_discount(+l_quantity)``.

        Computed once per instance: the dataclass is frozen, so the id cannot
        change, and the cached value lives in the instance ``__dict__``
        outside the compared, hashed and printed fields.
        """
        key_part = "_".join(self.key_columns)
        include_part = f"(+{'_'.join(self.include_columns)})" if self.include_columns else ""
        return f"ix_{self.table}_{key_part}{include_part}"

    @functools.cached_property
    def all_columns(self) -> tuple[str, ...]:
        """Every stored column: the key, then the INCLUDE list (cached like ``index_id``)."""
        return self.key_columns + self.include_columns

    @functools.cached_property
    def stored_columns(self) -> frozenset[str]:
        """The stored columns as a set, for covering checks (cached like ``index_id``)."""
        return frozenset(self.all_columns)

    def leading_column(self) -> str:
        return self.key_columns[0]

    def key_prefix(self, length: int) -> tuple[str, ...]:
        return self.key_columns[:length]

    def covers_columns(self, columns: Iterable[str]) -> bool:
        """True if every referenced column is stored in this index."""
        return self.stored_columns.issuperset(columns)

    def seekable_prefix_length(self, predicate_columns: AbstractSet[str]) -> int:
        """Number of leading key columns that are restricted by the given predicates."""
        length = 0
        for column in self.key_columns:
            if column in predicate_columns:
                length += 1
            else:
                break
        return length

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def geometry(self, data: TableData) -> IndexGeometry:
        """Entry width, size, leaf pages and depth over ``data`` (memoised there)."""
        return data.index_geometry(self.all_columns)


def deduplicate(indexes: list[IndexDefinition]) -> list[IndexDefinition]:
    """Remove exact duplicates while preserving order."""
    seen: set[IndexDefinition] = set()
    result: list[IndexDefinition] = []
    for index in indexes:
        if index in seen:
            continue
        seen.add(index)
        result.append(index)
    return result
