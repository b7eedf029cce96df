"""The database catalog: tables, materialised indexes and the memory budget.

:class:`Database` is the single mutable object of the engine layer.  It owns
the materialised table samples, the optimiser statistics (per-column row
count, distinct count and min/max; see :mod:`repro.engine.statistics`) and the
set of currently materialised secondary indexes, and it enforces the index
memory budget the paper grants to both tuners (1x the data size by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .backend import (
    BackendLike,
    BackendProfile,
    PlacementLike,
    UnknownPlacementTableError,
    resolve_backend,
    resolve_placement,
)
from .cost_model import CostModel
from .datagen import TableSpec
from .errors import (
    DuplicateIndexError,
    MemoryBudgetExceededError,
    UnknownIndexError,
    UnknownTableError,
)
from .indexes import IndexDefinition
from .schema import Schema
from .statistics import StatisticsCatalog, build_table_statistics
from .storage import TableData, build_table_data


@dataclass
class ConfigurationChange:
    """Result of transitioning the materialised configuration."""

    created: list[IndexDefinition] = field(default_factory=list)
    dropped: list[IndexDefinition] = field(default_factory=list)
    #: Per-index creation times (model-seconds), keyed by ``index_id``; needed
    #: by the bandit's reward shaping, which charges creation to the arm.
    creation_seconds_by_index: dict[str, float] = field(default_factory=dict)
    creation_seconds: float = 0.0
    drop_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.creation_seconds + self.drop_seconds


class Database:
    """A simulated analytical DBMS instance.

    Parameters
    ----------
    schema:
        Logical schema of the benchmark.
    tables:
        Mapping of table name to :class:`TableData`.
    memory_budget_bytes:
        Space allowance for secondary indexes.  ``None`` means unconstrained.
    backend:
        Storage-backend profile (a registered name such as ``"hdd"``,
        ``"ssd"``, ``"inmemory"``, ``"cloud"`` or a :class:`BackendProfile`
        instance) the engine's true cost model prices operators with;
        ``None`` keeps the default ``hdd`` tier.
    table_backends:
        Per-table placement: a ``{table: backend}`` mapping of overrides on
        top of ``backend``'s default tier.  Unknown table names raise
        :class:`~repro.engine.UnknownPlacementTableError`.  Move a table
        mid-run with :meth:`set_table_backend`.
    """

    def __init__(
        self,
        schema: Schema,
        tables: Mapping[str, TableData],
        memory_budget_bytes: int | None = None,
        backend: BackendLike = None,
        table_backends: PlacementLike = None,
    ) -> None:
        self.schema = schema
        self._tables: dict[str, TableData] = dict(tables)
        for table_name in schema.table_names:
            if table_name not in self._tables:
                raise UnknownTableError(table_name)
        self.memory_budget_bytes = memory_budget_bytes
        #: The engine's true cost model; shared with the executor.
        self.cost_model = CostModel(
            backend, resolve_placement(table_backends, self._tables)
        )
        self._indexes: dict[str, IndexDefinition] = {}
        self._index_sizes: dict[str, int] = {}
        #: Size estimates for hypothetical (not materialised) indexes.  Sizes
        #: derive from table statistics, so the cache lives until the next
        #: :meth:`refresh_statistics`; the tuner asks for the same candidate
        #: sizes every round, which made this the hottest engine call.
        self._hypothetical_sizes: dict[str, int] = {}
        self._data_size_bytes: int | None = None
        self._statistics = StatisticsCatalog()
        for data in self._tables.values():
            self._statistics.add(build_table_statistics(data))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_specs(
        cls,
        schema: Schema,
        table_specs: Iterable[TableSpec],
        sample_rows: int = 20_000,
        seed: int = 7,
        memory_budget_bytes: int | None = None,
        backend: BackendLike = None,
        table_backends: PlacementLike = None,
    ) -> "Database":
        """Generate table samples from specs and assemble a database.

        ``backend`` selects the default storage tier the cost model prices
        operators with and ``table_backends`` places individual tables on
        their own tiers (see :mod:`repro.engine.backend`).
        """
        rng = np.random.default_rng(seed)
        tables: dict[str, TableData] = {}
        for spec in table_specs:
            table = schema.table(spec.table_name)
            sample = spec.generate_sample(sample_rows, rng)
            distinct_hints = {
                column_name: generator.approximate_distinct
                for column_name, generator in spec.generators.items()
                if generator.approximate_distinct is not None
            }
            tables[spec.table_name] = build_table_data(
                table, sample, spec.row_count, distinct_hints=distinct_hints
            )
        return cls(
            schema=schema,
            tables=tables,
            memory_budget_bytes=memory_budget_bytes,
            backend=backend,
            table_backends=table_backends,
        )

    def tenant_view(self) -> "Database":
        """A lightweight per-tenant clone sharing this database's statistics.

        The view shares every structure that is immutable or an
        idempotent-by-value cache — the table samples with their memos of
        distinct counts and selectivities (see :class:`TableData`), the
        statistics catalog, the hypothetical-index size cache and the
        data-size total — so a fleet of identical tenants pays for
        statistics once, and for each distinct predicate set once.  It gets
        its own index catalog and its own :class:`CostModel` instance, so
        tenants materialise different configurations (and retune placements)
        without touching each other.  :meth:`refresh_statistics` on a view
        rebuilds private copies, detaching it from its siblings.
        """
        view = object.__new__(type(self))
        view.schema = self.schema
        view._tables = self._tables
        view.memory_budget_bytes = self.memory_budget_bytes
        view.cost_model = CostModel(
            self.cost_model.profile, self.cost_model.table_profiles
        )
        view._indexes = {}
        view._index_sizes = {}
        view._hypothetical_sizes = self._hypothetical_sizes
        view._data_size_bytes = self._data_size_bytes
        view._statistics = self._statistics
        return view

    # ------------------------------------------------------------------ #
    # tables and statistics
    # ------------------------------------------------------------------ #
    def table_data(self, table_name: str) -> TableData:
        try:
            return self._tables[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def statistics(self) -> StatisticsCatalog:
        return self._statistics

    @property
    def backend_profile(self) -> BackendProfile:
        """The *default* storage-backend profile (tables without an override)."""
        return self.cost_model.profile

    @property
    def table_backends(self) -> dict[str, BackendProfile]:
        """Per-table overrides in effect (tables on the default tier omitted)."""
        return dict(self.cost_model.table_profiles)

    def backend_profile_for(self, table_name: str) -> BackendProfile:
        """The effective profile one table is priced at (override or default)."""
        self.table_data(table_name)  # validates the name
        return self.cost_model.profile_for(table_name)

    def set_table_backend(self, table_name: str, backend: BackendLike) -> BackendProfile:
        """Move one table to another storage tier mid-run.

        ``backend`` is a registered name or a :class:`BackendProfile`;
        ``None`` returns the table to the default tier.  Takes effect
        immediately — a live session's very next plan and execution price
        the table at its new tier, which is what makes a mid-run tier
        migration a benchmarkable workload shift.

        Nothing else needs invalidating: every cached quantity derived from
        the data — the total data size, materialised *and* hypothetical index
        sizes, the statistics catalog and the tuners' size-ratio context
        features built from them — is a byte quantity independent of the
        storage tier.  Only the seconds the cost model reports change, and
        those are recomputed from the new profile on every call.

        Returns:
            The resolved profile the table is now priced at.

        Raises:
            repro.engine.UnknownPlacementTableError: For a table the database
                does not have (the message lists every table).
            repro.engine.UnknownBackendError: For an unregistered name.
        """
        if table_name not in self._tables:
            raise UnknownPlacementTableError(table_name, self._tables)
        overrides = dict(self.cost_model.table_profiles)
        if backend is None:
            overrides.pop(table_name, None)
        else:
            overrides[table_name] = resolve_backend(backend)
        self.cost_model = CostModel(self.cost_model.profile, overrides)
        return self.cost_model.profile_for(table_name)

    @property
    def data_size_bytes(self) -> int:
        """Total heap size of all tables (the paper's '1x' budget reference)."""
        if self._data_size_bytes is None:
            self._data_size_bytes = sum(data.total_bytes for data in self._tables.values())
        return self._data_size_bytes

    def refresh_statistics(self) -> None:
        """Rebuild optimiser statistics from the current table data.

        Invalidates every derived cache (hypothetical index sizes, the total
        data size) so callers holding cached estimates observe the new world.
        """
        self._statistics = StatisticsCatalog()
        for data in self._tables.values():
            self._statistics.add(build_table_statistics(data))
        # Reassign (rather than .clear()) so a refreshed tenant_view detaches
        # from the cache it shared with its siblings instead of emptying it
        # under them.
        self._hypothetical_sizes = {}
        self._data_size_bytes = None

    def grow_table(self, table_name: str, row_multiplier: float) -> TableData:
        """Scale a table's logical row count mid-run and refresh statistics.

        Models data ingest: the sample (and therefore the value distributions
        templates draw literals from) stays fixed while the full-size row
        count — what every scan, join and index build is priced on — grows by
        ``row_multiplier``.  Statistics are rebuilt immediately, so the very
        next plan, index-size estimate and context feature sees the new
        volume; this is what makes schema/data growth a workload-visible
        stressor (:mod:`repro.workloads.stress`).

        The grown table is a new :class:`TableData` sharing the read-only
        sample, so it starts with an empty memo: no distinct count computed
        from the old row count survives.  The table mapping is reassigned,
        not mutated, so a :meth:`tenant_view` that grows a table detaches
        from the snapshot it shared with its siblings instead of growing it
        under them.

        Returns:
            The table's new :class:`TableData`.

        Raises:
            UnknownTableError: If the database has no such table.
            ValueError: If ``row_multiplier`` is not positive.
        """
        if row_multiplier <= 0:
            raise ValueError("row_multiplier must be positive")
        data = self.table_data(table_name)
        grown = TableData(
            table=data.table,
            columns=data.columns,
            full_row_count=max(int(data.full_row_count * row_multiplier), 1),
            distinct_hints=dict(data.distinct_hints),
        )
        self._tables = {**self._tables, table_name: grown}
        self.refresh_statistics()
        return grown

    # ------------------------------------------------------------------ #
    # index catalogue
    # ------------------------------------------------------------------ #
    @property
    def materialised_indexes(self) -> list[IndexDefinition]:
        return list(self._indexes.values())

    @property
    def materialised_index_ids(self) -> set[str]:
        return set(self._indexes)

    def has_index(self, index: IndexDefinition) -> bool:
        return index.index_id in self._indexes

    def index_size_bytes(self, index: IndexDefinition) -> int:
        """Size of an index (materialised or hypothetical, cached)."""
        if index.index_id in self._index_sizes:
            return self._index_sizes[index.index_id]
        size = self._hypothetical_sizes.get(index.index_id)
        if size is None:
            size = index.geometry(self.table_data(index.table)).size_bytes
            self._hypothetical_sizes[index.index_id] = size
        return size

    @property
    def used_index_bytes(self) -> int:
        return sum(self._index_sizes.values())

    @property
    def available_index_bytes(self) -> int | None:
        if self.memory_budget_bytes is None:
            return None
        return self.memory_budget_bytes - self.used_index_bytes

    def fits_in_budget(self, indexes: Iterable[IndexDefinition]) -> bool:
        """Whether materialising the given (additional) indexes stays within budget."""
        if self.memory_budget_bytes is None:
            return True
        additional = sum(
            self.index_size_bytes(index)
            for index in indexes
            if index.index_id not in self._indexes
        )
        return self.used_index_bytes + additional <= self.memory_budget_bytes

    # ------------------------------------------------------------------ #
    # DDL operations
    # ------------------------------------------------------------------ #
    def create_index(self, index: IndexDefinition) -> float:
        """Materialise an index, returning its creation time in model-seconds."""
        if index.index_id in self._indexes:
            raise DuplicateIndexError(f"index already materialised: {index.index_id}")
        data = self.table_data(index.table)
        self.schema.validate_columns(index.table, index.all_columns)
        size = index.geometry(data).size_bytes
        available = self.available_index_bytes
        if available is not None and size > available:
            raise MemoryBudgetExceededError(size, available)
        self._indexes[index.index_id] = index
        self._index_sizes[index.index_id] = size
        return self.cost_model.index_creation_seconds(index, data)

    def drop_index(self, index: IndexDefinition) -> float:
        """Drop a materialised index, returning the (small) drop time."""
        if index.index_id not in self._indexes:
            raise UnknownIndexError(f"index not materialised: {index.index_id}")
        del self._indexes[index.index_id]
        del self._index_sizes[index.index_id]
        return self.cost_model.index_drop_seconds(index, self.table_data(index.table))

    def apply_configuration(self, target: Iterable[IndexDefinition]) -> ConfigurationChange:
        """Transition the materialised set to ``target``.

        Indexes not in the target are dropped first (freeing budget), then
        missing indexes are created.  Creation that would exceed the memory
        budget is skipped rather than raised, mirroring how a tuner's
        recommendation is clipped by the DBMS — callers can inspect
        ``ConfigurationChange.created`` to learn what was actually built.
        """
        target_by_id = {index.index_id: index for index in target}
        change = ConfigurationChange()
        for index_id, index in list(self._indexes.items()):
            if index_id not in target_by_id:
                change.drop_seconds += self.drop_index(index)
                change.dropped.append(index)
        for index_id, index in target_by_id.items():
            if index_id in self._indexes:
                continue
            if not self.fits_in_budget([index]):
                continue
            seconds = self.create_index(index)
            change.creation_seconds_by_index[index_id] = seconds
            change.creation_seconds += seconds
            change.created.append(index)
        return change

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        return {
            "schema": self.schema.name,
            "backend": self.backend_profile.name,
            "table_backends": {
                name: profile.name
                for name, profile in sorted(self.cost_model.table_profiles.items())
            },
            "tables": {name: data.summary() for name, data in sorted(self._tables.items())},
            "data_size_mb": round(self.data_size_bytes / (1024 * 1024), 2),
            "memory_budget_mb": (
                None
                if self.memory_budget_bytes is None
                else round(self.memory_budget_bytes / (1024 * 1024), 2)
            ),
            "materialised_indexes": sorted(self._indexes),
        }
