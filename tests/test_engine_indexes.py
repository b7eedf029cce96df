"""Unit tests for secondary-index definitions, sizes and prefix logic."""

import pytest

from repro.engine import IndexDefinition, SchemaError, deduplicate
from tests.conftest import make_sales_query


class TestDefinition:
    def test_index_id_encodes_key_and_includes(self):
        index = IndexDefinition("sales", ("day", "channel"), ("amount",))
        assert index.index_id == "ix_sales_day_channel(+amount)"

    def test_requires_key_columns(self):
        with pytest.raises(SchemaError):
            IndexDefinition("sales", ())

    def test_duplicate_key_columns_rejected(self):
        with pytest.raises(SchemaError):
            IndexDefinition("sales", ("day", "day"))

    def test_key_include_overlap_rejected(self):
        with pytest.raises(SchemaError):
            IndexDefinition("sales", ("day",), ("day",))

    def test_leading_column_and_prefix(self):
        index = IndexDefinition("sales", ("day", "channel", "amount"))
        assert index.leading_column() == "day"
        assert index.key_prefix(2) == ("day", "channel")

    def test_covers_columns_and_query(self):
        index = IndexDefinition("sales", ("day", "channel"), ("amount",))
        assert index.covers_columns(("day", "amount"))
        assert not index.covers_columns(("day", "product_id"))
        query = make_sales_query()  # references amount, day, channel
        assert index.covers_columns(query.referenced_columns_for("sales"))

    def test_seekable_prefix_length(self):
        index = IndexDefinition("sales", ("day", "channel", "amount"))
        assert index.seekable_prefix_length({"day", "channel"}) == 2
        assert index.seekable_prefix_length({"channel"}) == 0
        assert index.seekable_prefix_length({"day", "amount"}) == 1


class TestSizing:
    def test_size_grows_with_columns(self, tiny_database_readonly):
        data = tiny_database_readonly.table_data("sales")
        narrow = IndexDefinition("sales", ("day",))
        wide = IndexDefinition("sales", ("day",), ("amount", "channel", "product_id"))
        assert wide.geometry(data).size_bytes > narrow.geometry(data).size_bytes

    def test_size_smaller_than_heap_for_narrow_index(self, tiny_database_readonly):
        data = tiny_database_readonly.table_data("sales")
        narrow = IndexDefinition("sales", ("day",))
        assert narrow.geometry(data).size_bytes < data.total_bytes

    def test_depth_is_bounded(self, tiny_database_readonly):
        data = tiny_database_readonly.table_data("sales")
        index = IndexDefinition("sales", ("day", "channel"))
        assert 1 <= index.geometry(data).depth <= 6

    def test_leaf_pages_positive(self, tiny_database_readonly):
        data = tiny_database_readonly.table_data("customers")
        index = IndexDefinition("customers", ("region",))
        assert index.geometry(data).leaf_pages >= 1


class TestHelpers:
    def test_deduplicate_preserves_order(self):
        a = IndexDefinition("sales", ("day",))
        b = IndexDefinition("sales", ("channel",))
        assert deduplicate([a, b, a]) == [a, b]
