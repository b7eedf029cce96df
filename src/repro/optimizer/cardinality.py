"""Cardinality estimation under the optimiser's simplifying assumptions.

This module implements the estimation behaviour the paper criticises, from
per-column row count, distinct count and min/max alone (no histograms):

* **uniformity** — within a column, values are assumed evenly spread over
  ``[min, max]``;
* **attribute-value independence (AVI)** — the selectivities of predicates on
  different columns of the same table are multiplied together;
* **join uniformity / containment** — equi-join selectivity is
  ``1 / max(distinct(left), distinct(right))``.

On uniform data (TPC-H) these estimates are reasonable; on skewed or
correlated data (TPC-H Skew, IMDb) they can be off by orders of magnitude,
which is exactly what makes the what-if-driven PDTool mis-recommend indexes.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.query import Operator, Predicate
from repro.engine.statistics import ColumnStatistics, StatisticsCatalog

#: Selectivity assumed for a predicate on a column with no statistics at all.
DEFAULT_UNKNOWN_SELECTIVITY = 0.1
#: Lower bound: the optimiser never estimates fewer than one row.
MIN_SELECTIVITY = 1e-9


def combine_selectivities(selectivities: Iterable[float]) -> float:
    """AVI: the product of per-predicate selectivities, clamped to ``[MIN_SELECTIVITY, 1]``."""
    selectivity = 1.0
    for factor in selectivities:
        selectivity *= factor
    return float(min(1.0, max(MIN_SELECTIVITY, selectivity)))


class CardinalityEstimator:
    """Estimates selectivities and cardinalities from summary statistics.

    An estimator reads one statistics catalog, which is never updated in
    place (a refresh builds a new catalog and the planner a new estimator),
    so each column's distinct count is looked up once.
    """

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self.statistics = statistics
        self._distinct_counts: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # single predicates
    # ------------------------------------------------------------------ #
    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Estimated selectivity of a single predicate."""
        column = self.statistics.column(predicate.table, predicate.column)
        if column is None:
            return DEFAULT_UNKNOWN_SELECTIVITY
        selectivity = self._selectivity_from_statistics(predicate, column)
        return float(min(1.0, max(MIN_SELECTIVITY, selectivity)))

    def _selectivity_from_statistics(
        self, predicate: Predicate, column: ColumnStatistics
    ) -> float:
        operator = predicate.operator
        value = predicate.value
        if operator is Operator.EQ:
            return column.equality_selectivity()
        if operator is Operator.IN:
            values = value if isinstance(value, tuple) else (value,)
            return len(values) * column.equality_selectivity()
        if isinstance(value, tuple):
            # ``Predicate`` guarantees BETWEEN a (low, high) pair.
            if operator is Operator.BETWEEN:
                low, high = value
                return column.range_fraction(low, high)
        elif operator in (Operator.LT, Operator.LE):
            return column.range_fraction(None, float(value))
        elif operator in (Operator.GT, Operator.GE):
            return column.range_fraction(float(value), None)
        return DEFAULT_UNKNOWN_SELECTIVITY

    # ------------------------------------------------------------------ #
    # conjunctions and tables
    # ------------------------------------------------------------------ #
    def conjunctive_selectivity(self, predicates: tuple[Predicate, ...]) -> float:
        """AVI: multiply the per-predicate selectivities."""
        return combine_selectivities(
            [self.predicate_selectivity(predicate) for predicate in predicates]
        )

    def filtered_cardinality(self, table: str, predicates: tuple[Predicate, ...]) -> float:
        """Estimated rows of ``table`` satisfying ``predicates`` (its own filters)."""
        return self.cardinality_at(table, self.conjunctive_selectivity(predicates))

    def cardinality_at(self, table: str, selectivity: float) -> float:
        """Estimated rows of ``table`` at a combined ``selectivity`` (at least one)."""
        return max(1.0, self.statistics.row_count(table) * selectivity)

    # ------------------------------------------------------------------ #
    # joins
    # ------------------------------------------------------------------ #
    def distinct_count(self, table: str, column: str) -> float:
        key = (table, column)
        count = self._distinct_counts.get(key)
        if count is None:
            statistics = self.statistics.column(table, column)
            if statistics is None:
                count = max(1.0, self.statistics.row_count(table) * DEFAULT_UNKNOWN_SELECTIVITY)
            else:
                count = max(1.0, float(statistics.distinct_count))
            self._distinct_counts[key] = count
        return count

    def join_cardinality(
        self,
        outer_rows: float,
        outer_table: str,
        outer_column: str,
        inner_rows: float,
        inner_table: str,
        inner_column: str,
    ) -> float:
        """Equi-join size estimate: ``|R| * |S| / max(d(R.a), d(S.b))``."""
        outer_distinct = self.distinct_count(outer_table, outer_column)
        inner_distinct = self.distinct_count(inner_table, inner_column)
        return max(1.0, outer_rows * inner_rows / max(outer_distinct, inner_distinct))

    def rows_per_join_key(self, table: str, column: str) -> float:
        """Average rows per distinct join-key value (assumed uniform)."""
        rows = max(1, self.statistics.row_count(table))
        return rows / self.distinct_count(table, column)
