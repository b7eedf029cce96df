"""Relational schema definitions for the simulated DBMS.

A :class:`Schema` is purely structural: table names, column names, column
storage widths, primary keys and foreign keys.  How column *values* are
generated (distribution, skew, correlation) is described separately by
:mod:`repro.engine.datagen` so that the same schema can be instantiated with
uniform or skewed data (e.g. TPC-H vs TPC-H Skew).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import SchemaError, UnknownColumnError, UnknownTableError


class ColumnType(Enum):
    """Logical column types supported by the engine.

    Values are stored internally as numpy arrays of integer codes or floats;
    the logical type only influences byte-width accounting and predicate
    semantics (e.g. ranges over dates behave like ranges over integers).
    """

    INTEGER = "integer"
    FLOAT = "float"
    DECIMAL = "decimal"
    DATE = "date"
    CHAR = "char"
    VARCHAR = "varchar"

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.DECIMAL)


#: Default on-disk width (bytes) per logical type, used when a column does not
#: override ``width_bytes``.  These follow common DBMS defaults.
DEFAULT_WIDTH_BYTES = {
    ColumnType.INTEGER: 4,
    ColumnType.FLOAT: 8,
    ColumnType.DECIMAL: 8,
    ColumnType.DATE: 4,
    ColumnType.CHAR: 16,
    ColumnType.VARCHAR: 32,
}


@dataclass(frozen=True)
class Column:
    """A single column of a table.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        Logical type of the column.
    width_bytes:
        Storage width used for page and index-size accounting.  Defaults to a
        per-type width.
    """

    name: str
    ctype: ColumnType = ColumnType.INTEGER
    width_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.width_bytes is not None and self.width_bytes <= 0:
            raise SchemaError(f"column {self.name!r}: width_bytes must be positive")

    @property
    def width(self) -> int:
        """Effective storage width in bytes."""
        if self.width_bytes is not None:
            return self.width_bytes
        return DEFAULT_WIDTH_BYTES[self.ctype]


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key relationship ``child_table.child_column -> parent_table.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


@dataclass
class Table:
    """A table definition: ordered columns plus an optional primary key."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(f"table {self.name!r}: duplicate column {column.name!r}")
            seen.add(column.name)
        for key_column in self.primary_key:
            if key_column not in seen:
                raise SchemaError(
                    f"table {self.name!r}: primary key column {key_column!r} does not exist"
                )
        self._columns_by_name = {column.name: column for column in self.columns}

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`UnknownColumnError`."""
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    @property
    def row_width_bytes(self) -> int:
        """Approximate width of one row, including a fixed per-row header."""
        header_bytes = 8
        return header_bytes + sum(column.width for column in self.columns)


@dataclass
class Schema:
    """A database schema: a set of tables plus foreign-key relationships."""

    name: str
    tables: list[Table] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for table in self.tables:
            if table.name in seen:
                raise SchemaError(f"schema {self.name!r}: duplicate table {table.name!r}")
            seen.add(table.name)
        self._tables_by_name = {table.name: table for table in self.tables}
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        child = self.table(fk.child_table)
        parent = self.table(fk.parent_table)
        if not child.has_column(fk.child_column):
            raise UnknownColumnError(fk.child_table, fk.child_column)
        if not parent.has_column(fk.parent_column):
            raise UnknownColumnError(fk.parent_table, fk.parent_column)

    @property
    def table_names(self) -> list[str]:
        return [table.name for table in self.tables]

    def table(self, name: str) -> Table:
        """Return the table named ``name`` or raise :class:`UnknownTableError`."""
        try:
            return self._tables_by_name[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def columns_of(self, table_name: str) -> list[Column]:
        return list(self.table(table_name).columns)

    def validate_columns(self, table_name: str, column_names: Iterable[str]) -> None:
        """Raise if any of ``column_names`` is not a column of ``table_name``."""
        table = self.table(table_name)
        for column_name in column_names:
            if not table.has_column(column_name):
                raise UnknownColumnError(table_name, column_name)
