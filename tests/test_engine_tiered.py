"""Per-table backend placement: resolution, cross-tier pricing, migration.

The tentpole guarantees of the tiered-storage PR, pinned at the engine level:

* :meth:`CostModel.profile_for` resolves profiles per table (override or
  default) and an empty placement is bit-identical to the single-profile
  model;
* operators spanning tiers charge each side at its own tier (hash join,
  index-nested-loop, and the scan/seek/build family);
* unknown table names in a placement raise the listed-names
  :class:`UnknownPlacementTableError` (mirroring ``UnknownBackendError``);
* :meth:`Database.set_table_backend` re-tiers a live database mid-run, and
  ``backend=None`` returns a table to the default tier exactly.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    BackendProfile,
    CostModel,
    Database,
    IndexDefinition,
    UnknownBackendError,
    UnknownPlacementTableError,
    UnknownTableError,
    get_backend,
    resolve_placement,
)
from tests.conftest import build_tiny_schema, build_tiny_specs

#: Two profiles with deliberately different CPU constants so per-side billing
#: is visible even in pure-CPU operators (the built-ins share CPU constants).
FAST_CPU = BackendProfile(name="fast_cpu", cpu_hash_seconds=1e-9, cpu_tuple_seconds=1e-9)
SLOW_CPU = BackendProfile(name="slow_cpu", cpu_hash_seconds=1e-5, cpu_tuple_seconds=1e-5)


@pytest.fixture()
def tiered_database() -> Database:
    """sales on the default hdd tier, customers pinned in memory."""
    return Database.from_specs(
        schema=build_tiny_schema(),
        table_specs=build_tiny_specs(),
        sample_rows=600,
        seed=3,
        memory_budget_bytes=2 * 1024 * 1024 * 1024,
        table_backends={"customers": "inmemory"},
    )


# --------------------------------------------------------------------- #
# cost-model resolution
# --------------------------------------------------------------------- #
class TestProfileResolution:
    def test_profile_for_resolves_override_then_default(self, tiny_database_readonly):
        model = CostModel("hdd", {"sales": "ssd"})
        sales = tiny_database_readonly.table_data("sales")
        customers = tiny_database_readonly.table_data("customers")
        assert model.profile_for(sales).name == "ssd"
        assert model.profile_for("sales").name == "ssd"
        assert model.profile_for(customers).name == "hdd"
        assert model.profile_for(None).name == "hdd"

    def test_empty_placement_is_bit_identical(self, tiny_database_readonly):
        """No overrides -> exactly the single-profile cost model."""
        flat, placed = CostModel("hdd"), CostModel("hdd", {})
        data = tiny_database_readonly.table_data("sales")
        index = IndexDefinition("sales", ("day",), ("amount",))
        assert placed.full_scan_seconds(data) == flat.full_scan_seconds(data)
        assert placed.index_seek_seconds(index, data, 500, covering=False) == (
            flat.index_seek_seconds(index, data, 500, covering=False)
        )
        assert placed.index_creation_seconds(index, data) == (
            flat.index_creation_seconds(index, data)
        )
        assert placed.hash_join_seconds(1000, 2000, data, data) == (
            flat.hash_join_seconds(1000, 2000)
        )

    def test_scans_and_seeks_price_at_their_tables_tier(self, tiered_database):
        sales = tiered_database.table_data("sales")
        customers = tiered_database.table_data("customers")
        model = tiered_database.cost_model
        # the in-memory customers table scans at memory speed...
        assert model.full_scan_seconds(customers) == (
            CostModel("inmemory").full_scan_seconds(customers)
        )
        # ...while the cold sales table still pays hdd prices
        assert model.full_scan_seconds(sales) == CostModel("hdd").full_scan_seconds(sales)

    def test_index_build_prices_at_the_indexed_tables_tier(self, tiered_database):
        hot_index = IndexDefinition("customers", ("region",))
        cold_index = IndexDefinition("sales", ("day",))
        model = tiered_database.cost_model
        customers = tiered_database.table_data("customers")
        sales = tiered_database.table_data("sales")
        assert model.index_creation_seconds(hot_index, customers) == (
            CostModel("inmemory").index_creation_seconds(hot_index, customers)
        )
        assert model.index_creation_seconds(cold_index, sales) == (
            CostModel("hdd").index_creation_seconds(cold_index, sales)
        )
        # drops too: the metadata constant is the tier's own
        assert model.index_drop_seconds(hot_index, customers) == (
            get_backend("inmemory").index_drop_seconds
        )


class TestCrossTierOperators:
    def test_cross_tier_hash_join_charges_each_side_at_its_own_tier(
        self, tiny_database_readonly
    ):
        model = CostModel(SLOW_CPU, {"customers": FAST_CPU})
        sales = tiny_database_readonly.table_data("sales")  # slow tier
        customers = tiny_database_readonly.table_data("customers")  # fast tier
        build_rows, probe_rows = 10_000, 50_000
        cost = model.hash_join_seconds(
            build_rows, probe_rows, build_data=customers, probe_data=sales
        )
        expected = (
            build_rows * FAST_CPU.cpu_hash_seconds * 2
            + probe_rows * SLOW_CPU.cpu_hash_seconds
        )
        assert cost == pytest.approx(expected)
        # swapping the sides swaps the billing
        swapped = model.hash_join_seconds(
            build_rows, probe_rows, build_data=sales, probe_data=customers
        )
        assert swapped == pytest.approx(
            build_rows * SLOW_CPU.cpu_hash_seconds * 2
            + probe_rows * FAST_CPU.cpu_hash_seconds
        )

    def test_cross_tier_index_nested_loop_splits_probe_and_io(
        self, tiny_database_readonly
    ):
        """Probe CPU rides the outer stream's tier; every I/O term is inner-tier."""
        sales = tiny_database_readonly.table_data("sales")
        index = IndexDefinition("sales", ("customer_id",), ("amount",))
        outer_rows = 5_000
        model = CostModel(FAST_CPU, {"sales": "hdd"})
        cost_fast_outer = model.index_nested_loop_seconds(
            outer_rows, index, sales, 40, covering=True, outer_data=None
        )
        slow_outer = CostModel(SLOW_CPU, {"sales": "hdd"})
        cost_slow_outer = slow_outer.index_nested_loop_seconds(
            outer_rows, index, sales, 40, covering=True, outer_data=None
        )
        # only the probe-CPU term moved between the two models (the inner
        # side is pinned on hdd in both), and it moved by the cpu_hash ratio
        probe_fast = outer_rows * FAST_CPU.cpu_hash_seconds * index.geometry(sales).depth
        probe_slow = outer_rows * SLOW_CPU.cpu_hash_seconds * index.geometry(sales).depth
        assert cost_slow_outer - cost_fast_outer == pytest.approx(
            probe_slow - probe_fast
        )
        # the inner side's I/O prices at the inner table's tier: moving the
        # inner table to memory collapses the cost even with a slow outer
        inner_hot = CostModel(SLOW_CPU, {"sales": "inmemory"})
        assert inner_hot.index_nested_loop_seconds(
            outer_rows, index, sales, 40, covering=False
        ) < model.index_nested_loop_seconds(
            outer_rows, index, sales, 40, covering=False
        )

    def test_sort_spills_at_the_tables_tier(self, tiny_database_readonly):
        """A sort of a hot table's entries never spills; the cold twin does."""
        sales = tiny_database_readonly.table_data("sales")
        model = CostModel("hdd", {"sales": "inmemory"})
        rows, width = 50_000_000, 100
        hot = model.sort_seconds(rows, width, sales)
        cold = model.sort_seconds(rows, width)  # default tier: spills
        assert hot == CostModel("inmemory").sort_seconds(rows, width)
        assert cold > hot


# --------------------------------------------------------------------- #
# placement resolution
# --------------------------------------------------------------------- #
class TestPlacementResolution:
    def test_resolve_placement_resolves_names_and_profiles(self):
        resolved = resolve_placement(
            {"a": "ssd", "b": get_backend("cloud")}, ["a", "b", "c"]
        )
        assert resolved["a"].name == "ssd"
        assert resolved["b"].name == "cloud"
        assert "c" not in resolved

    def test_unknown_table_raises_listed_names_error(self):
        with pytest.raises(UnknownPlacementTableError, match=r"'orders'.*tables: a, b"):
            resolve_placement({"orders": "ssd"}, ["b", "a"])
        # mirrors UnknownBackendError: one exception satisfies every handler
        for kind in (KeyError, ValueError, UnknownTableError):
            with pytest.raises(kind):
                resolve_placement({"orders": "ssd"}, ["a", "b"])

    def test_unknown_backend_inside_placement_raises(self):
        with pytest.raises(UnknownBackendError, match="registered backends"):
            resolve_placement({"a": "floppy"}, ["a"])


# --------------------------------------------------------------------- #
# database plumbing and migration
# --------------------------------------------------------------------- #
class TestDatabasePlacement:
    def test_ctor_mapping_and_accessors(self, tiered_database):
        assert tiered_database.backend_profile.name == "hdd"
        assert {n: p.name for n, p in tiered_database.table_backends.items()} == {
            "customers": "inmemory"
        }
        assert tiered_database.backend_profile_for("customers").name == "inmemory"
        assert tiered_database.backend_profile_for("sales").name == "hdd"
        with pytest.raises(UnknownTableError):
            tiered_database.backend_profile_for("orders")
        summary = tiered_database.summary()
        assert summary["backend"] == "hdd"
        assert summary["table_backends"] == {"customers": "inmemory"}

    def test_ctor_rejects_unknown_placement_table(self):
        with pytest.raises(UnknownPlacementTableError, match="orders"):
            Database.from_specs(
                schema=build_tiny_schema(),
                table_specs=build_tiny_specs(),
                sample_rows=300,
                seed=3,
                table_backends={"orders": "ssd"},
            )

    def test_promote_and_demote_round_trip(self, tiny_database):
        sales = tiny_database.table_data("sales")
        cold_scan = tiny_database.cost_model.full_scan_seconds(sales)
        profile = tiny_database.set_table_backend("sales", "inmemory")
        assert profile.name == "inmemory"
        assert tiny_database.backend_profile_for("sales").name == "inmemory"
        hot_scan = tiny_database.cost_model.full_scan_seconds(sales)
        assert hot_scan < cold_scan
        # None returns the table to the default tier: the override is gone
        assert tiny_database.set_table_backend("sales", None).name == "hdd"
        assert tiny_database.table_backends == {}
        assert tiny_database.cost_model.full_scan_seconds(sales) == cold_scan

    def test_set_table_backend_validates(self, tiny_database):
        with pytest.raises(UnknownPlacementTableError, match="tables: customers, sales"):
            tiny_database.set_table_backend("orders", "ssd")
        with pytest.raises(UnknownPlacementTableError, match="orders"):
            tiny_database.set_table_backend("orders", None)
        with pytest.raises(UnknownBackendError):
            tiny_database.set_table_backend("sales", "floppy")

    def test_live_database_retimes_immediately(self, tiny_database):
        """A materialised index's table can migrate under the same catalog."""
        index = IndexDefinition("sales", ("day",), ("amount",))
        tiny_database.create_index(index)
        size_before = tiny_database.index_size_bytes(index)
        data_size_before = tiny_database.data_size_bytes
        tiny_database.set_table_backend("sales", "inmemory")
        # byte quantities are tier-independent; only the seconds moved
        assert tiny_database.index_size_bytes(index) == size_before
        assert tiny_database.data_size_bytes == data_size_before
        assert tiny_database.has_index(index)
