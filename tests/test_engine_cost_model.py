"""Unit tests for the engine's true cost model."""

import pytest

from repro.engine import (
    BackendProfile,
    CostModel,
    IndexDefinition,
    pages_touched_by_random_fetches,
)


@pytest.fixture()
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture()
def sales_data(tiny_database_readonly):
    return tiny_database_readonly.table_data("sales")


class TestPageTouchApproximation:
    def test_zero_fetches(self):
        assert pages_touched_by_random_fetches(0, 100) == 0.0

    def test_single_page_table(self):
        assert pages_touched_by_random_fetches(50, 1) == 1.0

    def test_bounded_by_table_pages(self):
        assert pages_touched_by_random_fetches(10_000_000, 500) <= 500

    def test_small_fetches_touch_about_one_page_each(self):
        touched = pages_touched_by_random_fetches(10, 1_000_000)
        assert 9.9 < touched <= 10.0

    def test_monotone_in_fetches(self):
        previous = 0.0
        for fetches in [10, 100, 1_000, 10_000, 100_000]:
            touched = pages_touched_by_random_fetches(fetches, 10_000)
            assert touched >= previous
            previous = touched


class TestScanAndSeek:
    def test_full_scan_scales_with_table_size(self, cost_model, tiny_database_readonly):
        sales = tiny_database_readonly.table_data("sales")
        customers = tiny_database_readonly.table_data("customers")
        assert cost_model.full_scan_seconds(sales) > cost_model.full_scan_seconds(customers)

    def test_zero_matching_rows_pays_traversal_only(self, cost_model, sales_data):
        """A seek that matches nothing must not be charged a leaf-page read."""
        index = IndexDefinition("sales", ("day",), ("amount",))
        traversal = index.geometry(sales_data).depth * cost_model.profile.random_page_read_seconds
        for covering in (True, False):
            cost = cost_model.index_seek_seconds(index, sales_data, 0, covering=covering)
            assert cost == pytest.approx(traversal)
        one_row = cost_model.index_seek_seconds(index, sales_data, 1, covering=True)
        assert one_row > cost_model.index_seek_seconds(index, sales_data, 0, covering=True)

    def test_selective_covering_seek_beats_full_scan(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",), ("amount", "channel"))
        seek = cost_model.index_seek_seconds(index, sales_data, matching_rows=1000, covering=True)
        assert seek < cost_model.full_scan_seconds(sales_data)

    def test_covering_seek_cheaper_than_non_covering(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",), ("amount",))
        covering = cost_model.index_seek_seconds(index, sales_data, 50_000, covering=True)
        lookup = cost_model.index_seek_seconds(index, sales_data, 50_000, covering=False)
        assert covering < lookup

    def test_unselective_non_covering_seek_worse_than_scan(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",))
        matching = int(sales_data.full_row_count * 0.5)
        seek = cost_model.index_seek_seconds(index, sales_data, matching, covering=False)
        assert seek > cost_model.full_scan_seconds(sales_data)

    def test_seek_cost_monotone_in_matching_rows(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",), ("amount",))
        costs = [
            cost_model.index_seek_seconds(index, sales_data, rows, covering=True)
            for rows in (10, 1_000, 100_000)
        ]
        assert costs == sorted(costs)

    def test_index_only_scan_cheaper_than_heap_scan_for_narrow_index(
        self, cost_model, sales_data
    ):
        narrow = IndexDefinition("sales", ("day",), ("amount",))
        assert cost_model.index_only_scan_seconds(narrow, sales_data) < cost_model.full_scan_seconds(
            sales_data
        )


class TestJoinsAndSorts:
    def test_hash_join_scales_with_inputs(self, cost_model):
        small = cost_model.hash_join_seconds(1_000, 1_000)
        large = cost_model.hash_join_seconds(1_000_000, 1_000_000)
        assert large > small

    def test_sort_spills_past_work_memory(self, cost_model):
        in_memory = cost_model.sort_seconds(10_000, row_width_bytes=100)
        spilling = cost_model.sort_seconds(50_000_000, row_width_bytes=100)
        assert spilling > in_memory * 100

    def test_sort_spill_bills_each_pass_at_its_own_bandwidth(self):
        """Regression: the spill's read pass was billed at *write* bandwidth.

        A spilling sort does one write pass and one read pass; with a profile
        whose read bandwidth is 10x its write bandwidth the read pass must be
        10x cheaper, not billed at the write rate (the old ``2 * bytes /
        write_bw`` formula).  Pinned exactly on an asymmetric profile.
        """
        profile = BackendProfile(
            name="asymmetric",
            sequential_read_bytes_per_second=1000e6,
            sequential_write_bytes_per_second=100e6,
        )
        model = CostModel(profile)
        rows, width = 50_000_000, 100
        spill_bytes = rows * width
        assert spill_bytes > profile.sort_spill_threshold_bytes
        cpu = CostModel(
            BackendProfile(name="no_spill", sort_spill_threshold_bytes=1 << 62)
        ).sort_seconds(rows, width)
        io = model.sort_seconds(rows, width) - cpu
        expected_io = spill_bytes / 100e6 + spill_bytes / 1000e6
        assert io == pytest.approx(expected_io)
        # the old formula would have charged both passes at the write rate
        assert io < 2 * spill_bytes / 100e6

    def test_sort_spill_on_hdd_write_and_read_passes(self, cost_model):
        """On the default tier the read pass is billed at 200 MB/s, write at 150."""
        rows, width = 50_000_000, 100
        spill_bytes = rows * width
        no_spill_cpu = CostModel(
            BackendProfile(sort_spill_threshold_bytes=1 << 62)
        ).sort_seconds(rows, width)
        io = cost_model.sort_seconds(rows, width) - no_spill_cpu
        assert io == pytest.approx(spill_bytes / 150e6 + spill_bytes / 200e6)

    def test_index_nested_loop_grows_with_outer_rows_but_io_is_bounded(
        self, cost_model, sales_data
    ):
        index = IndexDefinition("sales", ("customer_id",))
        small = cost_model.index_nested_loop_seconds(1_000, index, sales_data, 40, covering=True)
        large = cost_model.index_nested_loop_seconds(1_000_000, index, sales_data, 40, covering=True)
        assert large > small
        # The I/O component saturates: going 10x larger again must cost less
        # than 10x more (probe CPU dominates once every page is cached).
        huge = cost_model.index_nested_loop_seconds(10_000_000, index, sales_data, 40, covering=True)
        assert huge < large * 10

    def test_aggregation_cost_linear(self, cost_model):
        assert cost_model.aggregation_seconds(2_000_000) == pytest.approx(
            2 * cost_model.aggregation_seconds(1_000_000)
        )


class TestIndexMaintenance:
    def test_creation_includes_scan_sort_write(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",), ("amount",))
        creation = cost_model.index_creation_seconds(index, sales_data)
        assert creation > cost_model.full_scan_seconds(sales_data)

    def test_drop_is_cheap(self, cost_model, sales_data):
        index = IndexDefinition("sales", ("day",))
        assert cost_model.index_drop_seconds(index, sales_data) < 1.0


class TestParameters:
    def test_custom_parameters_change_costs(self, sales_data):
        slow = CostModel(BackendProfile(sequential_read_bytes_per_second=10e6))
        fast = CostModel(BackendProfile(sequential_read_bytes_per_second=1000e6))
        assert slow.full_scan_seconds(sales_data) > fast.full_scan_seconds(sales_data)

    def test_page_read_and_write_seconds_positive(self):
        profile = BackendProfile()
        assert profile.page_read_seconds() > 0
        assert profile.page_write_seconds() > 0
