"""Exception hierarchy for the simulated DBMS engine.

Keeping a small, explicit hierarchy lets callers distinguish configuration
errors (bad schema, unknown column) from run-time constraint violations
(memory budget exceeded) without string matching.

It also holds :class:`UnknownNameError` and :func:`lookup_name`, which every
fixed name table of the package (tuners, backends, benchmarks, stressors)
resolves through: this is the lowest module all of them import.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

_T = TypeVar("_T")


class UnknownNameError(KeyError, ValueError):
    """A name that no entry of a fixed name table matches.

    Both a :class:`KeyError` (a failed lookup) and a :class:`ValueError` (a
    bad argument), so either ``except`` spelling catches it.  The message
    starts with ``unknown`` and lists the valid names.
    """

    # KeyError.__str__ reprs the message (extra quotes); render it plainly.
    __str__ = Exception.__str__


def lookup_name(
    table: Mapping[str, _T], name: str, kind: str, error: type[UnknownNameError]
) -> _T:
    """``table``'s entry for ``name``, matched case-insensitively.

    Surrounding blanks are ignored, and a ``-`` or blank may stand for ``_``
    (``"DDQN-SC"``, ``" tier migration "``) or a ``-`` be left out
    (``"TPC-H"``).  Any other name raises ``error``, listing ``table``'s keys.
    """
    lowered = name.strip().lower()
    spellings = {
        lowered,
        lowered.replace("-", "_"),
        lowered.replace("-", ""),
        lowered.replace(" ", "_"),
    }
    for key, value in table.items():
        if key.lower() in spellings:
            return value
    raise error(f"unknown {kind} {name!r}; registered {kind}s: {', '.join(table)}")


class EngineError(Exception):
    """Base class for all errors raised by :mod:`repro.engine`."""


class SchemaError(EngineError):
    """A table, column or key definition is inconsistent."""


class UnknownTableError(SchemaError):
    """A query or index referenced a table that is not in the schema."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(SchemaError):
    """A query or index referenced a column that is not in its table."""

    def __init__(self, table_name: str, column_name: str) -> None:
        super().__init__(f"unknown column: {table_name!r}.{column_name!r}")
        self.table_name = table_name
        self.column_name = column_name


class DuplicateIndexError(EngineError):
    """An index with the same key definition is already materialised."""


class UnknownIndexError(EngineError):
    """An operation referenced an index that is not materialised."""


class MemoryBudgetExceededError(EngineError):
    """Materialising an index would exceed the configured memory budget."""

    def __init__(self, requested_bytes: int, available_bytes: int) -> None:
        super().__init__(
            "index materialisation would exceed the memory budget: "
            f"requested {requested_bytes} bytes, available {available_bytes} bytes"
        )
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes


class DataGenerationError(EngineError):
    """A column generator specification is invalid."""


class ExecutionError(EngineError):
    """A query plan could not be executed against the database."""
