"""Query-template machinery.

The paper's workloads are *templatised*: "each group of templatized queries is
invoked over rounds, producing different query instances".  A
:class:`QueryTemplate` captures the structural part of a query (tables, joins,
payload, which columns are filtered and how), and each round it is
*instantiated* with fresh literal values drawn from the actual column data, so
that selectivities vary across instances and reflect the data's real skew.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from repro.engine.catalog import Database
from repro.engine.query import (
    JoinPredicate,
    Operator,
    Predicate,
    Query,
    QueryShape,
    derive_shape,
)


class ValueMode(Enum):
    """How a predicate literal is drawn when a template is instantiated."""

    #: Draw a value by sampling a random row of the column (frequency-weighted,
    #: so heavy hitters of a skewed column are drawn proportionally often).
    SAMPLED_ROW = "sampled_row"
    #: Draw a random range covering a given fraction of the column's span.
    RANGE_FRACTION = "range_fraction"
    #: Use the fixed literal stored on the template.
    FIXED = "fixed"


@dataclass(frozen=True)
class PredicateTemplate:
    """Template for a single filter predicate."""

    table: str
    column: str
    operator: Operator
    mode: ValueMode = ValueMode.SAMPLED_ROW
    #: Fixed literal (``mode=FIXED``).
    fixed_value: float | int | tuple[Any, ...] | None = None
    #: Span fraction bounds used by ``mode=RANGE_FRACTION`` (low, high).
    fraction_range: tuple[float, float] = (0.05, 0.2)
    #: Number of literals for IN-list predicates.
    in_list_size: int = 3

    def instantiate(self, database: Database, rng: np.random.Generator) -> Predicate:
        """Draw a concrete :class:`Predicate` for one query instance."""
        if self.mode is ValueMode.FIXED:
            if self.fixed_value is None:
                raise ValueError(
                    f"predicate template {self.table}.{self.column}: FIXED mode needs fixed_value"
                )
            return Predicate(self.table, self.column, self.operator, self.fixed_value)
        data = database.table_data(self.table)
        values = data.column_array(self.column)
        if self.operator is Operator.IN:
            size = min(self.in_list_size, len(values))
            chosen = rng.choice(values, size=size, replace=True)
            literals = tuple(sorted({int(v) for v in np.asarray(chosen)}))
            return Predicate(self.table, self.column, Operator.IN, literals)
        if self.operator is Operator.EQ:
            literal = values[int(rng.integers(0, len(values)))]
            return Predicate(self.table, self.column, Operator.EQ, int(literal))
        # Range predicates: pick a window whose width is a fraction of the span.
        low_bound, high_bound = data.value_range(self.column)
        span = max(high_bound - low_bound, 1.0)
        fraction = float(rng.uniform(*self.fraction_range))
        if self.operator is Operator.BETWEEN:
            width = span * fraction
            start = float(rng.uniform(low_bound, max(low_bound, high_bound - width)))
            return Predicate(
                self.table, self.column, Operator.BETWEEN, (start, start + width)
            )
        if self.operator in (Operator.GE, Operator.GT):
            threshold = high_bound - span * fraction
            return Predicate(self.table, self.column, self.operator, threshold)
        if self.operator in (Operator.LE, Operator.LT):
            threshold = low_bound + span * fraction
            return Predicate(self.table, self.column, self.operator, threshold)
        raise ValueError(f"unsupported operator in template: {self.operator}")


@functools.lru_cache(maxsize=1024)
def _template_shape(
    template_id: str,
    tables: tuple[str, ...],
    predicate_columns: tuple[tuple[str, str], ...],
    joins: tuple[JoinPredicate, ...],
    payload: tuple[tuple[str, tuple[str, ...]], ...],
) -> QueryShape:
    """The shape of a template's structure, shared by equal structures.

    Every read of a benchmark's templates builds new template objects, and
    their instances outlive them in materialised workloads; sharing keeps
    one shape per template, not one per template object.
    """
    return derive_shape(f"template {template_id}", tables, predicate_columns, joins, dict(payload))


@dataclass
class QueryTemplate:
    """A templatised query: structure plus predicate templates.

    The template's structure is validated and its :class:`QueryShape`
    derived on construction; every instance shares that one shape object,
    so instantiating costs no per-table work.
    """

    template_id: str
    tables: tuple[str, ...]
    joins: tuple[JoinPredicate, ...] = ()
    payload: dict[str, tuple[str, ...]] = field(default_factory=dict)
    predicates: tuple[PredicateTemplate, ...] = ()
    #: Human-readable description for logging and documentation.
    description: str = ""

    _instance_counter: itertools.count[int] = field(
        default_factory=itertools.count, repr=False, compare=False
    )
    #: The shape every instance shares (each predicate template instantiates
    #: a predicate on its own table and column).
    shape: QueryShape = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = _template_shape(
            self.template_id,
            self.tables,
            tuple((template.table, template.column) for template in self.predicates),
            self.joins,
            tuple(self.payload.items()),
        )

    def instantiate(self, database: Database, rng: np.random.Generator) -> Query:
        """Produce a fresh query instance with newly drawn predicate literals."""
        instance_number = next(self._instance_counter)
        predicates = tuple(
            template.instantiate(database, rng) for template in self.predicates
        )
        return Query(
            query_id=f"{self.template_id}#{instance_number}",
            template_id=self.template_id,
            tables=self.tables,
            predicates=predicates,
            joins=self.joins,
            payload=dict(self.payload),
            template_shape=self.shape,
        )


# --------------------------------------------------------------------- #
# small helpers used by the benchmark definitions to stay readable
# --------------------------------------------------------------------- #
def eq(table: str, column: str) -> PredicateTemplate:
    """Equality predicate whose literal is a sampled row value."""
    return PredicateTemplate(table, column, Operator.EQ)


def in_list(table: str, column: str, size: int = 3) -> PredicateTemplate:
    return PredicateTemplate(table, column, Operator.IN, in_list_size=size)


def between(
    table: str, column: str, low_fraction: float = 0.05, high_fraction: float = 0.2
) -> PredicateTemplate:
    return PredicateTemplate(
        table,
        column,
        Operator.BETWEEN,
        mode=ValueMode.RANGE_FRACTION,
        fraction_range=(low_fraction, high_fraction),
    )


def top_fraction(
    table: str, column: str, low_fraction: float = 0.05, high_fraction: float = 0.2
) -> PredicateTemplate:
    """``column >= threshold`` selecting roughly the top given fraction."""
    return PredicateTemplate(
        table,
        column,
        Operator.GE,
        mode=ValueMode.RANGE_FRACTION,
        fraction_range=(low_fraction, high_fraction),
    )


def bottom_fraction(
    table: str, column: str, low_fraction: float = 0.05, high_fraction: float = 0.2
) -> PredicateTemplate:
    """``column <= threshold`` selecting roughly the bottom given fraction."""
    return PredicateTemplate(
        table,
        column,
        Operator.LE,
        mode=ValueMode.RANGE_FRACTION,
        fraction_range=(low_fraction, high_fraction),
    )


def join(left_table: str, left_column: str, right_table: str, right_column: str) -> JoinPredicate:
    return JoinPredicate(left_table, left_column, right_table, right_column)
