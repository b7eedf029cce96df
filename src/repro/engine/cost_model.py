"""The engine's "true" cost model.

All *actual* elapsed times reported by the simulated DBMS come from this
module, evaluated over true cardinalities measured on the materialised data.
The optimiser re-uses the same formulas but feeds them *estimated*
cardinalities (see :mod:`repro.optimizer.cardinality`) — so the gap between
the optimiser's expectation and the observed run time stems purely from
cardinality misestimation, which is precisely the failure mode the paper
studies.

Every timing constant lives in a :class:`~repro.engine.backend.BackendProfile`
(see :mod:`repro.engine.backend`).  The default ``hdd`` profile is calibrated
loosely to the paper's testbed (10K RPM disks, cold buffer cache): a full scan
of TPC-H SF 10 ``lineitem`` costs tens of model-seconds and a 22-query TPC-H
round lands in the few-hundred-second range, matching the order of magnitude
of Figure 2(b).  The ``ssd``, ``inmemory`` and ``cloud`` profiles re-time the
same formulas for other storage tiers — and profiles resolve *per table*
(:meth:`CostModel.profile_for`), so one database can keep hot tables in
memory while cold ones stay on disk, with operators spanning tiers charging
each side at its own tier.
"""

from __future__ import annotations

import math
from typing import Mapping

from .backend import BackendLike, BackendProfile, resolve_backend
from .indexes import IndexDefinition
from .storage import TableData

def pages_touched_by_random_fetches(rows_fetched: float, table_pages: int) -> float:
    """Expected number of distinct pages touched when fetching ``rows_fetched`` rows.

    Uses the classic Cardenas/Yao approximation ``P * (1 - (1 - 1/P)^k)`` which
    saturates at the table's page count: fetching millions of scattered rows
    can never cost more than touching every page once (cold cache), but small
    fetch counts pay one random I/O per row.
    """
    if table_pages <= 0 or rows_fetched <= 0:
        return 0.0
    if table_pages == 1:
        return 1.0
    exponent = rows_fetched * math.log1p(-1.0 / table_pages)
    return table_pages * (1.0 - math.exp(exponent))


class CostModel:
    """Cost formulas for the physical operators the simulator supports.

    The formulas are backend-independent; every constant they consume comes
    from a :class:`BackendProfile`, so the same operator tree costs very
    differently on ``hdd``, ``ssd``, ``inmemory`` and ``cloud`` storage.

    Profiles resolve *per table*: ``table_profiles`` maps table names to
    overriding profiles and every operator taking a :class:`TableData` prices
    that table at its own tier (:meth:`profile_for`), so a hot in-memory
    dimension table and a cold on-disk fact table can meet in one join with
    each side billed correctly.  Tables without an override — and operators
    with no table affinity, such as final aggregation and the fixed per-query
    overhead — use the default profile (``profile``).
    """

    def __init__(
        self,
        profile: BackendLike = None,
        table_profiles: "Mapping[str, BackendLike] | None" = None,
    ) -> None:
        #: The default backend profile supplying every timing constant for
        #: tables without a per-table override.
        self.profile = resolve_backend(profile)
        #: Per-table profile overrides (table name -> resolved profile).
        self.table_profiles: dict[str, BackendProfile] = {
            name: resolve_backend(backend)
            for name, backend in (table_profiles or {}).items()
        }
        #: Full-scan seconds per table sample.  A value depends only on the
        #: table's pages and rows and its profile, none of which change in
        #: place: growth builds a new ``TableData`` and a placement change
        #: (:meth:`Database.set_table_backend`) builds a new ``CostModel``.
        self._full_scan_seconds: dict[TableData, float] = {}

    def profile_for(self, data: "TableData | str | None") -> BackendProfile:
        """The effective profile for one table (``None`` -> the default tier).

        Accepts a :class:`TableData` or a bare table name; tables without an
        override resolve to the default profile.
        """
        if data is None or not self.table_profiles:
            return self.profile
        name = data if isinstance(data, str) else data.table.name
        return self.table_profiles.get(name, self.profile)

    # ------------------------------------------------------------------ #
    # scans and seeks
    # ------------------------------------------------------------------ #
    def full_scan_seconds(self, data: TableData) -> float:
        """Sequential scan of the whole heap, at the table's own tier."""
        seconds = self._full_scan_seconds.get(data)
        if seconds is None:
            profile = self.profile_for(data)
            io = data.pages * profile.page_read_seconds()
            cpu = data.full_row_count * profile.cpu_tuple_seconds
            seconds = self._full_scan_seconds[data] = io + cpu
        return seconds

    def index_seek_seconds(
        self,
        index: IndexDefinition,
        data: TableData,
        matching_rows: int,
        covering: bool,
    ) -> float:
        """Seek into a B+-tree and fetch ``matching_rows`` rows.

        Covering seeks read only the index leaves; non-covering seeks pay an
        additional random heap lookup per qualifying row (bounded by the
        Cardenas/Yao page-touch approximation).
        """
        profile = self.profile_for(data)
        geometry = index.geometry(data)
        matching_rows = max(0, matching_rows)
        traversal = geometry.depth * profile.random_page_read_seconds
        if matching_rows == 0:
            # A seek that matches nothing pays the root-to-leaf traversal
            # only — there is no leaf page to read and no row to fetch.
            return traversal
        leaf_fraction = matching_rows / max(1, data.full_row_count)
        leaf_pages_read = max(1.0, leaf_fraction * geometry.leaf_pages)
        leaf_io = leaf_pages_read * profile.page_read_seconds()
        cpu = matching_rows * profile.cpu_tuple_seconds
        if covering:
            return traversal + leaf_io + cpu * profile.covering_cpu_discount
        heap_pages = pages_touched_by_random_fetches(matching_rows, data.pages)
        heap_io = heap_pages * profile.random_page_read_seconds
        return traversal + leaf_io + heap_io + cpu

    def index_only_scan_seconds(self, index: IndexDefinition, data: TableData) -> float:
        """Scan every leaf of a covering index (no predicate on the key prefix)."""
        profile = self.profile_for(data)
        io = index.geometry(data).leaf_pages * profile.page_read_seconds()
        cpu = data.full_row_count * profile.cpu_tuple_seconds * profile.covering_cpu_discount
        return io + cpu

    # ------------------------------------------------------------------ #
    # joins, sorts and aggregation
    # ------------------------------------------------------------------ #
    def sort_seconds(
        self,
        rows: int,
        row_width_bytes: int = 32,
        data: TableData | None = None,
    ) -> float:
        """Sort ``rows`` entries, spilling at the tier of ``data``'s table.

        ``data`` names the table whose tier the sort runs on (index builds
        sort that table's entries); ``None`` uses the default profile.
        """
        profile = self.profile_for(data)
        rows = max(1, rows)
        compares = rows * max(1.0, math.log2(rows))
        cpu = compares * profile.cpu_sort_compare_seconds
        spill_bytes = rows * row_width_bytes
        # Sorting spills once past the backend's work memory: one write pass
        # at the write bandwidth plus one read pass at the (distinct) read
        # bandwidth — profiles with asymmetric bandwidths bill each pass at
        # its own rate.  The in-memory profile sets the threshold unreachably
        # high, so it never spills.
        work_memory_bytes = profile.sort_spill_threshold_bytes
        io = 0.0
        if spill_bytes > work_memory_bytes:
            io = (
                spill_bytes / profile.sequential_write_bytes_per_second
                + spill_bytes / profile.sequential_read_bytes_per_second
            )
        return cpu + io

    def hash_join_seconds(
        self,
        build_rows: int,
        probe_rows: int,
        build_data: TableData | None = None,
        probe_data: TableData | None = None,
    ) -> float:
        """Hash join: build on the inner input, probe with the outer stream.

        Each side is billed at its own table's tier (``build_data`` names the
        build input's table, ``probe_data`` the table driving the probe
        stream); ``None`` falls back to the default profile, which reproduces
        the single-tier behaviour exactly.
        """
        build = max(0, build_rows) * self.profile_for(build_data).cpu_hash_seconds * 2
        probe = max(0, probe_rows) * self.profile_for(probe_data).cpu_hash_seconds
        return build + probe

    def index_nested_loop_seconds(
        self,
        outer_rows: int,
        inner_index: IndexDefinition,
        inner_data: TableData,
        rows_per_probe: float,
        covering: bool,
        outer_data: TableData | None = None,
    ) -> float:
        """Probe the inner index once per outer row.

        This is the operator responsible for the paper's Q18/Q5-style
        regressions: if the optimiser underestimates ``outer_rows`` it picks
        this plan and the true cost grows with the real outer cardinality.
        Index pages are buffered across probes, so the I/O component is
        bounded by touching every index (and, for non-covering probes, heap)
        page once; the per-probe CPU cost is unbounded.

        Each side prices at its own tier: the per-probe CPU rides the outer
        stream (``outer_data``; ``None`` -> default profile) while every I/O
        term touches the inner table's storage.
        """
        inner_profile = self.profile_for(inner_data)
        geometry = inner_index.geometry(inner_data)
        outer_rows = max(0, outer_rows)
        probe_cpu = (
            outer_rows
            * self.profile_for(outer_data).cpu_hash_seconds
            * geometry.depth
        )
        index_pages = geometry.leaf_pages + geometry.depth
        index_io = (
            pages_touched_by_random_fetches(outer_rows, index_pages)
            * inner_profile.random_page_read_seconds
        )
        fetched_rows = outer_rows * max(0.0, rows_per_probe)
        cpu = fetched_rows * inner_profile.cpu_tuple_seconds
        if covering:
            return probe_cpu + index_io + cpu * inner_profile.covering_cpu_discount
        heap_pages = pages_touched_by_random_fetches(fetched_rows, inner_data.pages)
        heap_io = heap_pages * inner_profile.random_page_read_seconds
        return probe_cpu + index_io + heap_io + cpu

    def aggregation_seconds(self, rows: int) -> float:
        return max(0, rows) * self.profile.cpu_hash_seconds

    # ------------------------------------------------------------------ #
    # index maintenance
    # ------------------------------------------------------------------ #
    def index_creation_seconds(self, index: IndexDefinition, data: TableData) -> float:
        """Build cost: scan the heap, sort the entries, write the leaves.

        Every phase runs at the indexed table's own tier — promoting a table
        to memory makes its index builds cheap, not just its scans.
        """
        profile = self.profile_for(data)
        geometry = index.geometry(data)
        scan = self.full_scan_seconds(data)
        sort = self.sort_seconds(data.full_row_count, geometry.entry_width_bytes, data)
        write = geometry.leaf_pages * profile.page_write_seconds()
        return scan + sort + write

    def index_drop_seconds(self, index: IndexDefinition, data: TableData) -> float:
        """Dropping is a metadata operation: small backend-specific constant."""
        del index
        return self.profile_for(data).index_drop_seconds
