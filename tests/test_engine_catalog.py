"""Unit tests for the database catalog: index DDL and the memory budget."""

import pytest

from repro.engine import (
    Database,
    DuplicateIndexError,
    IndexDefinition,
    MemoryBudgetExceededError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.workloads import get_benchmark
from tests.conftest import build_tiny_schema, build_tiny_specs


class TestConstruction:
    def test_from_specs_builds_all_tables(self, tiny_database_readonly):
        assert set(tiny_database_readonly.table_names) == {"sales", "customers"}
        assert tiny_database_readonly.data_size_bytes > 0

    def test_missing_table_spec_raises(self):
        with pytest.raises(UnknownTableError):
            Database.from_specs(
                schema=build_tiny_schema(),
                table_specs=build_tiny_specs()[:1],  # customers missing
                sample_rows=100,
            )

    def test_statistics_catalog_populated(self, tiny_database_readonly):
        statistics = tiny_database_readonly.statistics
        assert statistics.row_count("sales") == 200_000
        assert statistics.column("sales", "channel") is not None

    def test_summary(self, tiny_database_readonly):
        summary = tiny_database_readonly.summary()
        assert summary["schema"] == "tiny"
        assert "sales" in summary["tables"]


class TestRefreshStatistics:
    def test_refresh_invalidates_size_caches_and_rebuilds_statistics(self, tiny_database):
        from repro.engine import build_table_data

        index = IndexDefinition("sales", ("day",), ("amount",))
        # Prime every statistics-derived cache.
        size_before = tiny_database.index_size_bytes(index)
        data_size_before = tiny_database.data_size_bytes
        assert tiny_database.statistics.row_count("sales") == 200_000

        # The sales table doubles in logical size (same sample, new row count).
        old = tiny_database.table_data("sales")
        tiny_database._tables["sales"] = build_table_data(
            old.table, old.columns, full_row_count=old.full_row_count * 2
        )
        # Caches still serve the pre-change estimates until a refresh...
        assert tiny_database.index_size_bytes(index) == size_before
        assert tiny_database.data_size_bytes == data_size_before

        tiny_database.refresh_statistics()
        assert tiny_database.statistics.row_count("sales") == 400_000
        assert tiny_database.index_size_bytes(index) > size_before
        assert tiny_database.data_size_bytes > data_size_before


class TestIndexDDL:
    def test_create_and_drop_index(self, tiny_database):
        index = IndexDefinition("sales", ("day",), ("amount",))
        creation_seconds = tiny_database.create_index(index)
        assert creation_seconds > 0
        assert tiny_database.has_index(index)
        assert tiny_database.used_index_bytes == tiny_database.index_size_bytes(index)
        drop_seconds = tiny_database.drop_index(index)
        assert drop_seconds >= 0
        assert not tiny_database.has_index(index)
        assert tiny_database.used_index_bytes == 0

    def test_duplicate_creation_rejected(self, tiny_database):
        index = IndexDefinition("sales", ("day",))
        tiny_database.create_index(index)
        with pytest.raises(DuplicateIndexError):
            tiny_database.create_index(index)

    def test_drop_unknown_index_rejected(self, tiny_database):
        with pytest.raises(UnknownIndexError):
            tiny_database.drop_index(IndexDefinition("sales", ("day",)))

    def test_memory_budget_enforced(self, tiny_database):
        tiny_database.memory_budget_bytes = 1  # effectively zero
        with pytest.raises(MemoryBudgetExceededError):
            tiny_database.create_index(IndexDefinition("sales", ("day",)))

    def test_drop_all_indexes(self, tiny_database):
        tiny_database.create_index(IndexDefinition("sales", ("day",)))
        tiny_database.create_index(IndexDefinition("customers", ("region",)))
        change = tiny_database.apply_configuration([])
        assert len(change.dropped) == 2
        assert tiny_database.materialised_indexes == []
        assert tiny_database.used_index_bytes == 0


class TestApplyConfiguration:
    def test_transition_creates_and_drops(self, tiny_database):
        first = IndexDefinition("sales", ("day",))
        second = IndexDefinition("sales", ("channel",))
        change = tiny_database.apply_configuration([first])
        assert [index.index_id for index in change.created] == [first.index_id]
        change = tiny_database.apply_configuration([second])
        assert [index.index_id for index in change.dropped] == [first.index_id]
        assert [index.index_id for index in change.created] == [second.index_id]
        assert change.creation_seconds_by_index[second.index_id] > 0

    def test_idempotent_configuration(self, tiny_database):
        index = IndexDefinition("sales", ("day",))
        tiny_database.apply_configuration([index])
        change = tiny_database.apply_configuration([index])
        assert change.created == [] and change.dropped == []
        assert change.total_seconds == 0

    def test_over_budget_indexes_skipped_not_raised(self, tiny_database):
        tiny_database.memory_budget_bytes = 1
        change = tiny_database.apply_configuration([IndexDefinition("sales", ("day",))])
        assert change.created == []
        assert not tiny_database.materialised_indexes



class TestGrowthAndMaterialisedSizes:
    @pytest.mark.xfail(
        strict=True,
        reason="known bug: grow_table never refreshes a materialised index's recorded size",
    )
    def test_materialised_index_size_follows_table_growth(self):
        database = get_benchmark("ssb").create_database(scale_factor=1, sample_rows=300, seed=4)
        index = IndexDefinition("lineorder", ("lo_orderdate",))
        database.create_index(index)
        assert database.index_size_bytes(index) == 97_200_000
        database.grow_table("lineorder", 2.0)
        grown = index.geometry(database.table_data("lineorder")).size_bytes
        assert grown == 194_400_000
        # Stale today: both still read the size at creation, 97,200,000 B,
        # so the budget undercounts what is materialised after ingest.
        assert database.index_size_bytes(index) == grown
        assert database.used_index_bytes == grown
