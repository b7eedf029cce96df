"""Logical query model processed by the simulated DBMS.

Queries are structured objects rather than SQL text: a set of referenced
tables, per-table filter predicates, join predicates, and a per-table payload
(the columns that must be returned/aggregated).  This is exactly the
information the paper's arm generation consumes ("combinations and
permutations of query predicates ... with and without inclusion of payload
attributes"), and it is sufficient for plan selection and cost simulation.

A query's *shape* is what it asks of each table, literals aside: which of
its predicates filter the table, and the table's filter, join and payload
columns.  A template's instances differ only in their literals, so
:class:`~repro.workloads.templates.QueryTemplate` derives the shape once and
every instance shares it; the planner, the executor and arm generation read
it instead of re-deriving it per call.

A light SQL-ish rendering is provided for logging and examples.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple


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
    value: float | int | tuple[Any, ...] = 0

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
        value = self.value
        if self.operator is Operator.BETWEEN and isinstance(value, tuple):
            low, high = value
            return f"{self.table}.{self.column} BETWEEN {low} AND {high}"
        if self.operator is Operator.IN and isinstance(value, tuple):
            values = ", ".join(str(v) for v in value)
            return f"{self.table}.{self.column} IN ({values})"
        return f"{self.table}.{self.column} {self.operator.value} {value}"


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


class TableShape(NamedTuple):
    """What one query asks of one of its tables, whatever the literals."""

    #: Positions of the table's filter predicates in ``Query.predicates``.
    predicate_positions: tuple[int, ...]
    #: The table's filter-predicate columns, de-duplicated, in query order.
    predicate_columns: tuple[str, ...]
    #: The table's join columns, de-duplicated, in query order.  A self-join
    #: contributes its left column only.
    join_columns: tuple[str, ...]
    #: The table's payload columns, as the query lists them.
    payload_columns: tuple[str, ...]
    #: ``(other_table, other_column, column)`` of each join linking the
    #: table to another one, in query order (self-joins link nothing).
    join_links: tuple[tuple[str, str, str], ...]
    #: ``predicate_columns`` as a set: a seekable index key prefix is made
    #: of these.
    predicate_column_set: frozenset[str]
    #: Every column the query touches on the table (covering checks).
    referenced_column_set: frozenset[str]


#: A query's shape: the :class:`TableShape` of each table it references.
#: Instances of one template share one shape, so it is typed read-only.
QueryShape = Mapping[str, TableShape]

#: The shape of a table the query does not reference.
_ABSENT = TableShape((), (), (), (), (), frozenset(), frozenset())


def derive_shape(
    owner: str,
    tables: tuple[str, ...],
    predicate_columns: Iterable[tuple[str, str]],
    joins: tuple[JoinPredicate, ...],
    payload: Mapping[str, tuple[str, ...]],
) -> QueryShape:
    """Validate a query's structure and derive its per-table shape.

    Args:
        owner: Names the query or template in error messages.
        tables: The FROM list.
        predicate_columns: ``(table, column)`` of each filter predicate, in
            query order.
        joins: The join predicates.
        payload: The per-table payload columns.

    Raises:
        ValueError: If a predicate, join or payload names a table that is not
            in the FROM list.
    """
    filtered = list(predicate_columns)
    table_set = set(tables)
    for table_name, _ in filtered:
        if table_name not in table_set:
            raise ValueError(
                f"{owner}: predicate on {table_name!r} "
                "references a table not in the FROM list"
            )
    for join in joins:
        if join.left_table not in table_set or join.right_table not in table_set:
            raise ValueError(
                f"{owner}: join {join.render()} references a table not in the FROM list"
            )
    for table_name in payload:
        if table_name not in table_set:
            raise ValueError(f"{owner}: payload table {table_name!r} is not in the FROM list")
    shape: dict[str, TableShape] = {}
    for table_name in tables:
        positions = tuple(
            position for position, (table, _) in enumerate(filtered) if table == table_name
        )
        filter_columns = tuple(dict.fromkeys(filtered[position][1] for position in positions))
        join_columns: dict[str, None] = {}
        join_links: list[tuple[str, str, str]] = []
        for join in joins:
            if join.left_table == table_name:
                join_columns[join.left_column] = None
                if join.right_table != table_name:
                    join_links.append((join.right_table, join.right_column, join.left_column))
            elif join.right_table == table_name:
                join_columns[join.right_column] = None
                join_links.append((join.left_table, join.left_column, join.right_column))
        payload_columns = tuple(payload.get(table_name, ()))
        filter_set = frozenset(filter_columns)
        shape[table_name] = TableShape(
            positions,
            filter_columns,
            tuple(join_columns),
            payload_columns,
            tuple(join_links),
            filter_set,
            filter_set.union(join_columns, payload_columns),
        )
    return shape


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
    template_shape:
        The shape every instance of the query's template shares (see
        :class:`~repro.workloads.templates.QueryTemplate`); ``None`` derives
        the query's own, validating its structure.  ``dataclasses.replace``
        passes ``None``, so a replaced query always gets a fresh shape.

    ``shape`` holds the query's :class:`TableShape` per referenced table.
    """

    query_id: str
    template_id: str
    tables: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()
    joins: tuple[JoinPredicate, ...] = ()
    payload: dict[str, tuple[str, ...]] = field(default_factory=dict)
    template_shape: InitVar[QueryShape | None] = None
    shape: QueryShape = field(init=False, repr=False, compare=False)

    def __post_init__(self, template_shape: QueryShape | None) -> None:
        if template_shape is None:
            template_shape = derive_shape(
                f"query {self.query_id}",
                self.tables,
                [(predicate.table, predicate.column) for predicate in self.predicates],
                self.joins,
                self.payload,
            )
        self.shape = template_shape

    def predicates_for(self, table: str) -> tuple[Predicate, ...]:
        """Filter predicates that apply to ``table``."""
        predicates = self.predicates
        return tuple(
            [predicates[position] for position in self.shape.get(table, _ABSENT).predicate_positions]
        )

    def join_columns_for(self, table: str) -> tuple[str, ...]:
        """Columns of ``table`` used in join predicates, in query order."""
        return self.shape.get(table, _ABSENT).join_columns

    def predicate_columns_for(self, table: str) -> tuple[str, ...]:
        """Filter-predicate columns of ``table``, de-duplicated, in query order."""
        return self.shape.get(table, _ABSENT).predicate_columns

    def payload_columns_for(self, table: str) -> tuple[str, ...]:
        return self.shape.get(table, _ABSENT).payload_columns

    def referenced_columns_for(self, table: str) -> tuple[str, ...]:
        """All columns of ``table`` the query touches (predicates, joins, payload)."""
        table_shape = self.shape.get(table, _ABSENT)
        return tuple(
            dict.fromkeys(
                table_shape.predicate_columns
                + table_shape.join_columns
                + table_shape.payload_columns
            )
        )

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
