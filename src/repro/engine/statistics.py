"""Optimiser-visible summary statistics.

The paper's central critique is that cost-based physical design tools trust
optimiser estimates built on *summary* statistics and simplifying assumptions
(uniform value distribution within ``[min, max]``, attribute-value
independence across columns).  To reproduce the resulting misestimates we keep
two views of the data:

* the *true* view — selectivities measured directly on the materialised
  sample (:class:`repro.engine.storage.TableData`); and
* the *optimiser* view — the per-column summaries in this module: row count,
  distinct count and min/max, with no histograms.  They deliberately discard
  skew and correlation information, so the optimiser assumes uniformity within
  a column and independence across columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .storage import TableData


@dataclass
class ColumnStatistics:
    """Summary statistics for one column, as the optimiser sees them."""

    table_name: str
    column_name: str
    row_count: int
    distinct_count: int
    min_value: float
    max_value: float

    @property
    def value_span(self) -> float:
        return max(self.max_value - self.min_value, 0.0)

    def equality_selectivity(self) -> float:
        """Estimated selectivity of ``column = constant`` under uniformity."""
        if self.distinct_count <= 0:
            return 1.0
        return 1.0 / self.distinct_count

    def range_fraction(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of rows with value in ``[low, high]``.

        Interpolates linearly over ``[min, max]`` (the uniformity assumption).
        """
        low_bound = self.min_value if low is None else low
        high_bound = self.max_value if high is None else high
        if high_bound < low_bound:
            return 0.0
        span = self.value_span
        if span <= 0:
            return 1.0
        overlap = min(high_bound, self.max_value) - max(low_bound, self.min_value)
        if overlap < 0:
            return 0.0
        return min(1.0, overlap / span)


@dataclass
class TableStatistics:
    """All optimiser statistics for one table."""

    table_name: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, column_name: str) -> ColumnStatistics | None:
        return self.columns.get(column_name)


class StatisticsCatalog:
    """Per-table optimiser statistics for the whole database."""

    def __init__(self) -> None:
        self._tables: dict[str, TableStatistics] = {}

    def add(self, statistics: TableStatistics) -> None:
        self._tables[statistics.table_name] = statistics

    def table(self, table_name: str) -> TableStatistics | None:
        return self._tables.get(table_name)

    def column(self, table_name: str, column_name: str) -> ColumnStatistics | None:
        table_statistics = self._tables.get(table_name)
        if table_statistics is None:
            return None
        return table_statistics.column(column_name)

    def row_count(self, table_name: str) -> int:
        table_statistics = self._tables.get(table_name)
        return 0 if table_statistics is None else table_statistics.row_count

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)


def build_column_statistics(data: TableData, column_name: str) -> ColumnStatistics:
    """Build optimiser statistics for one column from the materialised sample.

    The distinct count and min/max come from the sample (scaled for unique
    columns), mirroring how real systems build statistics from row samples.
    """
    min_value, max_value = data.value_range(column_name)
    return ColumnStatistics(
        table_name=data.name,
        column_name=column_name,
        row_count=data.full_row_count,
        distinct_count=data.distinct_count(column_name),
        min_value=min_value,
        max_value=max_value,
    )


def build_table_statistics(data: TableData) -> TableStatistics:
    """Build optimiser statistics for every column of a table."""
    statistics = TableStatistics(table_name=data.name, row_count=data.full_row_count)
    for column in data.table.columns:
        if not data.has_column_data(column.name):
            continue
        statistics.columns[column.name] = build_column_statistics(data, column.name)
    return statistics
