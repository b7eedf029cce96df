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
from repro.engine.statistics import OptimizerStatistics

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


def equality_selectivity(distinct_count: int) -> float:
    """Uniformity: ``column = constant`` matches one of ``distinct_count`` values."""
    return 1.0 / distinct_count


def range_fraction(
    value_range: tuple[float, float], low: float | None, high: float | None
) -> float:
    """Uniformity: the fraction of ``value_range`` that ``[low, high]`` covers.

    Interpolates linearly over ``[min, max]``; an open end is the column's
    own bound.
    """
    min_value, max_value = value_range
    low_bound = min_value if low is None else low
    high_bound = max_value if high is None else high
    if high_bound < low_bound:
        return 0.0
    span = max_value - min_value
    if span <= 0:
        return 1.0
    overlap = min(high_bound, max_value) - max(low_bound, min_value)
    if overlap < 0:
        return 0.0
    return min(1.0, overlap / span)


class CardinalityEstimator:
    """Estimates selectivities and cardinalities from summary statistics.

    The statistics view reads the database's current tables, so one
    estimator serves a database for its whole life: a grown table is seen
    by the very next estimate.
    """

    def __init__(self, statistics: OptimizerStatistics) -> None:
        self.statistics = statistics

    # ------------------------------------------------------------------ #
    # single predicates
    # ------------------------------------------------------------------ #
    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Estimated selectivity of a single predicate."""
        selectivity = self._selectivity_from_statistics(predicate)
        return float(min(1.0, max(MIN_SELECTIVITY, selectivity)))

    def _selectivity_from_statistics(self, predicate: Predicate) -> float:
        operator = predicate.operator
        value = predicate.value
        if operator is Operator.EQ or operator is Operator.IN:
            distinct_count = self.statistics.distinct_count(predicate.table, predicate.column)
            if distinct_count is None:
                return DEFAULT_UNKNOWN_SELECTIVITY
            if operator is Operator.EQ:
                return equality_selectivity(distinct_count)
            values = value if isinstance(value, tuple) else (value,)
            return len(values) * equality_selectivity(distinct_count)
        value_range = self.statistics.value_range(predicate.table, predicate.column)
        if value_range is None:
            return DEFAULT_UNKNOWN_SELECTIVITY
        if isinstance(value, tuple):
            # ``Predicate`` guarantees BETWEEN a (low, high) pair.
            if operator is Operator.BETWEEN:
                low, high = value
                return range_fraction(value_range, low, high)
        elif operator in (Operator.LT, Operator.LE):
            return range_fraction(value_range, None, float(value))
        elif operator in (Operator.GT, Operator.GE):
            return range_fraction(value_range, float(value), None)
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
        count = self.statistics.distinct_count(table, column)
        if count is None:
            return max(1.0, self.statistics.row_count(table) * DEFAULT_UNKNOWN_SELECTIVITY)
        return max(1.0, float(count))

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
