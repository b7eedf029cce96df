"""Optimiser-visible summary statistics.

The paper's central critique is that cost-based physical design tools trust
optimiser estimates built on *summary* statistics and simplifying assumptions
(uniform value distribution within ``[min, max]``, attribute-value
independence across columns).  To reproduce the resulting misestimates we keep
two views of the data:

* the *true* view — selectivities measured directly on the materialised
  sample (:class:`repro.engine.storage.TableData`); and
* the *optimiser* view — :class:`OptimizerStatistics`: per table the row
  count, and per column the distinct count and min/max, with no histograms.
  It deliberately discards skew and correlation information, so the
  optimiser assumes uniformity within a column and independence across
  columns.

The view copies nothing.  It reads each table's current ``TableData``, whose
memo already holds these numbers, so a grown table is seen at once and there
is no copy to rebuild.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .catalog import Database


class OptimizerStatistics:
    """The summaries the optimiser may read of a database's current tables.

    Only summaries pass through: the row count, distinct count and value
    range of a column, never its sample.  A table the database does not have
    reads as zero rows, and a column without data as ``None``.  Each read
    looks the table up in the database's current table mapping, which
    :meth:`Database.grow_table` replaces, so the view never goes stale.
    """

    __slots__ = ("_database",)

    def __init__(self, database: Database) -> None:
        self._database = database

    def row_count(self, table_name: str) -> int:
        data = self._database._tables.get(table_name)
        return 0 if data is None else data.full_row_count

    def distinct_count(self, table_name: str, column_name: str) -> int | None:
        data = self._database._tables.get(table_name)
        if data is None or column_name not in data.columns:
            return None
        return data.distinct_count(column_name)

    def value_range(self, table_name: str, column_name: str) -> tuple[float, float] | None:
        data = self._database._tables.get(table_name)
        if data is None or column_name not in data.columns:
            return None
        return data.value_range(column_name)
