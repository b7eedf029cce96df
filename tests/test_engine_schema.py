"""Unit tests for schema definitions (tables, columns, keys, validation)."""

import pytest

from repro.engine import (
    Column,
    ColumnType,
    ForeignKey,
    Schema,
    SchemaError,
    Table,
    UnknownColumnError,
    UnknownTableError,
)


class TestColumn:
    def test_default_width_per_type(self):
        assert Column("a", ColumnType.INTEGER).width == 4
        assert Column("a", ColumnType.FLOAT).width == 8
        assert Column("a", ColumnType.DATE).width == 4
        assert Column("a", ColumnType.VARCHAR).width == 32

    def test_explicit_width_overrides_default(self):
        assert Column("a", ColumnType.VARCHAR, width_bytes=100).width == 100

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_non_positive_width_rejected(self):
        with pytest.raises(SchemaError):
            Column("a", ColumnType.INTEGER, width_bytes=0)

    def test_numeric_types(self):
        assert ColumnType.INTEGER.is_numeric
        assert ColumnType.DECIMAL.is_numeric
        assert not ColumnType.CHAR.is_numeric


class TestTable:
    def test_column_lookup(self):
        table = Table("t", [Column("a"), Column("b")])
        assert table.column("a").name == "a"
        assert table.has_column("b")
        assert not table.has_column("c")

    def test_unknown_column_raises(self):
        table = Table("t", [Column("a")])
        with pytest.raises(UnknownColumnError):
            table.column("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a"), Column("a")])

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a")], primary_key=("zzz",))

    def test_row_width_includes_header(self):
        table = Table("t", [Column("a"), Column("b")])
        assert table.row_width_bytes == 8 + 4 + 4

    def test_column_names_order_preserved(self):
        table = Table("t", [Column("z"), Column("a"), Column("m")])
        assert table.column_names == ["z", "a", "m"]


class TestSchema:
    def test_table_lookup_and_unknown(self):
        schema = Schema("s", [Table("t", [Column("a")])])
        assert schema.table("t").name == "t"
        assert schema.table_names == ["t"]
        with pytest.raises(UnknownTableError):
            schema.table("missing")

    def test_duplicate_tables_rejected(self):
        with pytest.raises(SchemaError):
            Schema("s", [Table("t", [Column("a")]), Table("t", [Column("b")])])

    def test_foreign_key_validation(self):
        parent = Table("p", [Column("id")])
        child = Table("c", [Column("p_id")])
        schema = Schema("s", [parent, child], [ForeignKey("c", "p_id", "p", "id")])
        assert schema.foreign_keys[0].parent_table == "p"

    def test_invalid_foreign_key_column_rejected(self):
        parent = Table("p", [Column("id")])
        child = Table("c", [Column("p_id")])
        with pytest.raises(UnknownColumnError):
            Schema("s", [parent, child], [ForeignKey("c", "nope", "p", "id")])

    def test_validate_columns(self):
        schema = Schema("s", [Table("t", [Column("a"), Column("b")])])
        schema.validate_columns("t", ["a", "b"])
        with pytest.raises(UnknownColumnError):
            schema.validate_columns("t", ["a", "zzz"])


class TestBenchmarkSchemas:
    """The five benchmark schemas must be internally consistent."""

    @pytest.mark.parametrize("name,expected_tables", [
        ("tpch", 8),
        ("tpch_skew", 8),
        ("ssb", 5),
        ("tpcds", 12),
        ("imdb", 13),
    ])
    def test_schema_table_counts(self, name, expected_tables):
        from repro.workloads import get_benchmark

        benchmark = get_benchmark(name)
        assert len(benchmark.schema.tables) == expected_tables
        # every foreign key refers to existing tables/columns (validated at
        # construction time; reaching here means construction succeeded)
        assert benchmark.schema.foreign_keys
