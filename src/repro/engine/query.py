"""Logical query model processed by the simulated DBMS.

Queries are structured objects rather than SQL text: a set of referenced
tables, per-table filter predicates, join predicates, and a per-table payload
(the columns that must be returned/aggregated).  This is exactly the
information the paper's arm generation consumes ("combinations and
permutations of query predicates ... with and without inclusion of payload
attributes"), and it is sufficient for plan selection and cost simulation.

A light SQL-ish rendering is provided for logging and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Operator(Enum):
    """Filter predicate comparison operators."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"
    IN = "in"

    # Members are singletons (pickling restores them by name), so identity
    # hashing is exact; it runs in C, where ``Enum.__hash__`` hashes the
    # member's name in Python on every ``Predicate`` hash.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Predicate:
    """A filter predicate ``table.column <op> value`` (or value range / list)."""

    table: str
    column: str
    operator: Operator
    value: float | int | tuple = 0

    def __post_init__(self) -> None:
        if self.operator is Operator.BETWEEN and (
            not isinstance(self.value, tuple) or len(self.value) != 2
        ):
            raise ValueError("BETWEEN predicate requires a (low, high) tuple value")
        if self.operator is Operator.IN and not isinstance(self.value, tuple):
            raise ValueError("IN predicate requires a tuple of values")
        # Predicates key the engine's selectivity memo, so an unhashable
        # value (a list, an array) must fail here rather than mid-execution.
        try:
            hash(self.value)
        except TypeError:
            raise ValueError(
                f"predicate {self.table}.{self.column} {self.operator.value}: "
                f"value {self.value!r} is not hashable; use a number or a tuple"
            ) from None

    def render(self) -> str:
        if self.operator is Operator.BETWEEN:
            low, high = self.value
            return f"{self.table}.{self.column} BETWEEN {low} AND {high}"
        if self.operator is Operator.IN:
            values = ", ".join(str(v) for v in self.value)
            return f"{self.table}.{self.column} IN ({values})"
        return f"{self.table}.{self.column} {self.operator.value} {self.value}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def render(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)


@dataclass
class Query:
    """A single analytical query.

    Parameters
    ----------
    query_id:
        Unique identifier of this query *instance*.
    template_id:
        Identifier of the template family the instance was drawn from; the
        query store aggregates statistics per template.
    tables:
        Tables referenced by the query.
    predicates:
        Filter predicates (conjunctive).
    joins:
        Equi-join predicates between referenced tables.
    payload:
        Mapping of table -> columns that must be produced for that table
        (select list, aggregation inputs, group-by columns).
    """

    query_id: str
    template_id: str
    tables: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()
    joins: tuple[JoinPredicate, ...] = ()
    payload: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        table_set = set(self.tables)
        for predicate in self.predicates:
            if predicate.table not in table_set:
                raise ValueError(
                    f"query {self.query_id}: predicate on {predicate.table!r} "
                    "references a table not in the FROM list"
                )
        for join in self.joins:
            if join.left_table not in table_set or join.right_table not in table_set:
                raise ValueError(
                    f"query {self.query_id}: join {join.render()} references a table "
                    "not in the FROM list"
                )
        for table_name in self.payload:
            if table_name not in table_set:
                raise ValueError(
                    f"query {self.query_id}: payload table {table_name!r} "
                    "is not in the FROM list"
                )

    def predicates_for(self, table: str) -> tuple[Predicate, ...]:
        """Filter predicates that apply to ``table``."""
        return tuple([p for p in self.predicates if p.table == table])

    def join_columns_for(self, table: str) -> tuple[str, ...]:
        """Columns of ``table`` used in join predicates, in query order."""
        columns: list[str] = []
        for join in self.joins:
            if join.left_table == table:
                column = join.left_column
            elif join.right_table == table:
                column = join.right_column
            else:
                continue
            if column not in columns:
                columns.append(column)
        return tuple(columns)

    def predicate_columns_for(self, table: str) -> tuple[str, ...]:
        """Filter-predicate columns of ``table``, de-duplicated, in query order."""
        columns: list[str] = []
        for predicate in self.predicates_for(table):
            if predicate.column not in columns:
                columns.append(predicate.column)
        return tuple(columns)

    def payload_columns_for(self, table: str) -> tuple[str, ...]:
        return tuple(self.payload.get(table, ()))

    def referenced_columns_for(self, table: str) -> tuple[str, ...]:
        """All columns of ``table`` the query touches (predicates, joins, payload)."""
        columns: list[str] = []
        for group in (
            self.predicate_columns_for(table),
            self.join_columns_for(table),
            self.payload_columns_for(table),
        ):
            for column in group:
                if column not in columns:
                    columns.append(column)
        return tuple(columns)

    def render(self) -> str:
        """Render an SQL-ish string for logging and examples."""
        select_parts: list[str] = []
        for table_name in self.tables:
            for column in self.payload_columns_for(table_name):
                select_parts.append(f"{table_name}.{column}")
        select_clause = ", ".join(select_parts) if select_parts else "COUNT(*)"
        from_clause = ", ".join(self.tables)
        where_parts = [join.render() for join in self.joins]
        where_parts.extend(predicate.render() for predicate in self.predicates)
        sql = f"SELECT {select_clause} FROM {from_clause}"
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        return sql
