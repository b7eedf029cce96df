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

from .errors import SchemaError
from .query import Query
from .storage import PAGE_SIZE_BYTES, TableData

#: B+-tree space overhead (interior nodes, fill factor).
BTREE_OVERHEAD = 1.35
#: Bytes of row pointer stored with every index entry.
ROW_POINTER_BYTES = 8


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

    @property
    def all_columns(self) -> tuple[str, ...]:
        return self.key_columns + self.include_columns

    def leading_column(self) -> str:
        return self.key_columns[0]

    def key_prefix(self, length: int) -> tuple[str, ...]:
        return self.key_columns[:length]

    def is_prefix_of(self, other: "IndexDefinition") -> bool:
        """True if this index's key is a leading prefix of ``other``'s key.

        Used by the oracle's filtering step: once an index on ``(a, b, c)`` is
        selected, an index on ``(a, b)`` adds no additional seek capability.
        """
        if self.table != other.table:
            return False
        if len(self.key_columns) > len(other.key_columns):
            return False
        return other.key_columns[: len(self.key_columns)] == self.key_columns

    def covers_columns(self, columns: tuple[str, ...]) -> bool:
        """True if every referenced column is stored in this index."""
        available = set(self.all_columns)
        return all(column in available for column in columns)

    def covers_query(self, query: Query) -> bool:
        """True if the index alone can answer the query's needs for its table."""
        return self.covers_columns(query.referenced_columns_for(self.table))

    def seekable_prefix_length(self, predicate_columns: set[str]) -> int:
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
    def entry_width_bytes(self, data: TableData) -> int:
        """Width of a single leaf entry in bytes."""
        return data.width_of(self.all_columns) + ROW_POINTER_BYTES

    def size_bytes(self, data: TableData) -> int:
        """Estimated on-disk size of the materialised index."""
        return int(self.entry_width_bytes(data) * data.full_row_count * BTREE_OVERHEAD)

    def leaf_pages(self, data: TableData) -> int:
        return max(1, int(self.size_bytes(data) / PAGE_SIZE_BYTES))

    def depth(self, data: TableData) -> int:
        """Approximate B+-tree depth (root-to-leaf page reads for one seek)."""
        entries_per_page = max(2, PAGE_SIZE_BYTES // max(1, self.entry_width_bytes(data)))
        depth = 1
        pages = self.leaf_pages(data)
        while pages > 1:
            pages = max(1, pages // entries_per_page)
            depth += 1
        return min(depth, 6)


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


def remove_prefix_redundant(indexes: list[IndexDefinition]) -> list[IndexDefinition]:
    """Drop indexes whose key is a strict prefix of another index on the same table
    and whose stored columns are a subset of that wider index."""
    result: list[IndexDefinition] = []
    for index in indexes:
        redundant = False
        for other in indexes:
            if other is index or other == index:
                continue
            same_key_wider = (
                index.is_prefix_of(other)
                and len(other.key_columns) >= len(index.key_columns)
                and set(index.all_columns) <= set(other.all_columns)
            )
            if same_key_wider and not (other.is_prefix_of(index) and len(other.key_columns) == len(index.key_columns)):
                redundant = True
                break
        if not redundant:
            result.append(index)
    return result
