"""Tests for storage-backend profiles and their registry.

Pins the tentpole guarantees of the multi-backend PR: the default profile is
bit-identical to the historical hard-coded constants (``hdd``), the built-in
``ssd``/``inmemory`` tiers re-time the same formulas coherently (narrower
random/sequential gap, cheaper I/O), profiles are frozen and picklable, and
the registry mirrors the tuner registry's ergonomics — including an
:class:`~repro.engine.UnknownBackendError` that lists every registered name —
and a profile whose constants would make time negative (or divide by zero)
fails at construction.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import (
    BackendProfile,
    CostModel,
    Database,
    UnknownBackendError,
    get_backend,
    register_backend,
    registered_backend_names,
    resolve_backend,
)
from repro.engine.backend import _REGISTRY
from repro.engine.indexes import IndexDefinition
from repro.workloads import get_benchmark


@pytest.fixture(scope="module")
def tiny_database() -> Database:
    return get_benchmark("ssb").create_database(scale_factor=0.1, sample_rows=200)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_names_registered(self):
        assert registered_backend_names() == ["hdd", "ssd", "inmemory", "cloud"]

    def test_lookup_is_case_insensitive(self):
        for name, expected in [
            ("hdd", "hdd"),
            ("HDD", "hdd"),
            (" Ssd ", "ssd"),
            ("InMemory", "inmemory"),
            ("CLOUD", "cloud"),
        ]:
            assert get_backend(name).name == expected

    def test_unknown_backend_error_names_and_lists(self):
        with pytest.raises(ValueError, match="floppy.*registered backends.*hdd.*ssd.*inmemory"):
            get_backend("floppy")
        # Same exception satisfies KeyError handlers, like UnknownTunerError.
        with pytest.raises(KeyError):
            get_backend("floppy")
        assert issubclass(UnknownBackendError, KeyError)
        assert issubclass(UnknownBackendError, ValueError)

    def test_register_custom_backend(self):
        try:

            @register_backend("test_san")
            def _san() -> BackendProfile:
                return BackendProfile(name="test_san", per_query_overhead_seconds=0.2)

            assert get_backend("Test-SAN").per_query_overhead_seconds == 0.2
            assert registered_backend_names()[-1] == "test_san"
        finally:
            _REGISTRY.pop("test_san", None)

    def test_resolve_backend_accepts_all_spellings(self):
        assert resolve_backend(None) == get_backend("hdd")
        assert resolve_backend("ssd").name == "ssd"
        custom = BackendProfile(name="custom", cpu_hash_seconds=1e-9)
        assert resolve_backend(custom) is custom


# --------------------------------------------------------------------- #
# profiles
# --------------------------------------------------------------------- #
class TestProfiles:
    def test_default_profile_is_hdd(self):
        """The zero-argument profile carries the historical constants exactly."""
        hdd = get_backend("hdd")
        assert hdd == BackendProfile()
        assert hdd.sequential_read_bytes_per_second == 200e6
        assert hdd.sequential_write_bytes_per_second == 150e6
        assert hdd.random_page_read_seconds == 2.0e-4
        assert hdd.cpu_tuple_seconds == 2.0e-7
        assert hdd.cpu_sort_compare_seconds == 5.0e-8
        assert hdd.cpu_hash_seconds == 1.5e-7
        assert hdd.per_query_overhead_seconds == 0.05
        assert hdd.covering_cpu_discount == 0.5
        assert hdd.sort_spill_threshold_bytes == 1 << 30
        assert hdd.index_drop_seconds == 0.1

    def test_profiles_are_frozen_and_hashable(self):
        profile = get_backend("ssd")
        with pytest.raises(AttributeError):
            profile.random_page_read_seconds = 0.0
        assert len({get_backend(n) for n in registered_backend_names()}) == 4

    @pytest.mark.parametrize("name", ["hdd", "ssd", "inmemory", "cloud"])
    def test_profiles_pickle_round_trip(self, name):
        profile = get_backend(name)
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile
        assert CostModel(clone).full_scan_seconds is not None

    def test_random_sequential_gap_narrows_down_the_tiers(self):
        """The defining axis: HDD punishes random I/O, memory barely does."""
        hdd, ssd, mem = (get_backend(n) for n in ("hdd", "ssd", "inmemory"))
        assert hdd.random_to_sequential_ratio > ssd.random_to_sequential_ratio
        assert ssd.random_to_sequential_ratio > mem.random_to_sequential_ratio
        assert hdd.random_page_read_seconds > ssd.random_page_read_seconds
        assert ssd.random_page_read_seconds > mem.random_page_read_seconds

    def test_summary_is_serialisable(self):
        summary = get_backend("ssd").summary()
        assert summary["name"] == "ssd"
        assert summary["random_to_sequential_ratio"] < 3

    def test_cloud_profile_is_latency_dominated(self):
        """The object store: random fetches dwarf even the HDD's penalty."""
        cloud, hdd = get_backend("cloud"), get_backend("hdd")
        assert cloud.random_to_sequential_ratio > 100
        assert cloud.random_to_sequential_ratio > 10 * hdd.random_to_sequential_ratio
        assert cloud.random_page_read_seconds > hdd.random_page_read_seconds
        # decent sequential bandwidth — streaming beats the spinning disks
        assert cloud.sequential_read_bytes_per_second > hdd.sequential_read_bytes_per_second
        # reads stream faster than writes: the asymmetry the sort-spill
        # accounting must bill per pass
        assert cloud.sequential_read_bytes_per_second > cloud.sequential_write_bytes_per_second
        # per-request latency shows up as a fat fixed per-query overhead too
        assert cloud.per_query_overhead_seconds > hdd.per_query_overhead_seconds


# --------------------------------------------------------------------- #
# cost model under different backends
# --------------------------------------------------------------------- #
class TestBackendCostModel:
    def test_cost_model_accepts_name_profile_or_nothing(self):
        default = CostModel()
        by_name = CostModel("hdd")
        by_profile = CostModel(get_backend("hdd"))
        assert default.profile == by_name.profile == by_profile.profile

    def test_every_operator_gets_cheaper_down_the_tiers(self, tiny_database):
        data = tiny_database.table_data("lineorder")
        index = IndexDefinition("lineorder", ("lo_orderdate",))
        models = {name: CostModel(name) for name in ("hdd", "ssd", "inmemory")}
        for op in (
            lambda m: m.full_scan_seconds(data),
            lambda m: m.index_seek_seconds(index, data, 500, covering=False),
            lambda m: m.index_only_scan_seconds(index, data),
            lambda m: m.index_creation_seconds(index, data),
            lambda m: m.index_drop_seconds(index, data),
        ):
            assert op(models["hdd"]) > op(models["ssd"]) > op(models["inmemory"])

    def test_inmemory_sorts_never_spill(self):
        rows = 200_000_000  # far beyond the 1 GB HDD/SSD work memory
        hdd, mem = CostModel("hdd"), CostModel("inmemory")
        # CPU term is backend-independent; the HDD sort additionally pays the
        # spill I/O, so it must exceed the pure-CPU in-memory sort.
        assert hdd.sort_seconds(rows) > mem.sort_seconds(rows)

    def test_default_database_prices_on_hdd(self, tiny_database):
        assert tiny_database.backend_profile.name == "hdd"
        assert tiny_database.backend_profile == BackendProfile()


# --------------------------------------------------------------------- #
# database plumbing
# --------------------------------------------------------------------- #
class TestDatabaseBackend:
    def test_create_database_with_backend_name(self):
        database = get_benchmark("ssb").create_database(
            scale_factor=0.1, sample_rows=200, backend="ssd"
        )
        assert database.backend_profile.name == "ssd"

    def test_backend_changes_pricing_not_data(self):
        hdd = get_benchmark("ssb").create_database(scale_factor=0.1, sample_rows=200)
        database = get_benchmark("ssb").create_database(
            scale_factor=0.1, sample_rows=200, backend="inmemory"
        )
        assert database.backend_profile.name == "inmemory"
        index = IndexDefinition("lineorder", ("lo_orderdate",))
        # byte quantities are tier-independent; seconds are not
        assert database.index_size_bytes(index) == hdd.index_size_bytes(index)
        assert database.data_size_bytes == hdd.data_size_bytes
        data = database.table_data("lineorder")
        scan_hdd = hdd.cost_model.full_scan_seconds(hdd.table_data("lineorder"))
        scan_mem = database.cost_model.full_scan_seconds(data)
        assert scan_mem < scan_hdd
        # The CPU term is tier-independent, so the whole gap is I/O — and the
        # in-memory I/O term must be a ~100x smaller slice of it.
        cpu = data.full_row_count * database.backend_profile.cpu_tuple_seconds
        assert (scan_mem - cpu) < (scan_hdd - cpu) / 50

    def test_unknown_backend_name_lists_backends(self):
        with pytest.raises(UnknownBackendError, match="registered backends"):
            get_benchmark("ssb").create_database(
                scale_factor=0.1, sample_rows=200, backend="punchcard"
            )


# --------------------------------------------------------------------- #
# profile validation
# --------------------------------------------------------------------- #
class TestProfileValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sequential_read_bytes_per_second", 0),
            ("sequential_read_bytes_per_second", -1e9),
            ("sequential_write_bytes_per_second", 0),
            ("sequential_write_bytes_per_second", float("nan")),
            ("random_page_read_seconds", -1.0),
            ("cpu_tuple_seconds", -1e-7),
            ("cpu_sort_compare_seconds", -1e-8),
            ("cpu_hash_seconds", float("nan")),
            ("per_query_overhead_seconds", -0.05),
            ("index_drop_seconds", -0.1),
            ("covering_cpu_discount", -0.1),
            ("covering_cpu_discount", 1.5),
            ("sort_spill_threshold_bytes", 0),
            ("sort_spill_threshold_bytes", -1),
        ],
    )
    def test_invalid_constant_fails_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            BackendProfile(**{field: value})

    def test_zero_costs_and_discount_bounds_are_valid(self):
        BackendProfile(
            random_page_read_seconds=0.0,
            per_query_overhead_seconds=0.0,
            index_drop_seconds=0.0,
            covering_cpu_discount=0.0,
        )
        BackendProfile(covering_cpu_discount=1.0)
