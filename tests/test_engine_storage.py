"""Unit tests for materialised table storage and true-statistics measurement."""

import numpy as np
import pytest

import repro.engine.storage as storage
from repro.engine import (
    Column,
    ColumnType,
    Database,
    Operator,
    PAGE_SIZE_BYTES,
    Predicate,
    Schema,
    SchemaError,
    Table,
    TableData,
    UnknownColumnError,
    build_table_data,
    evaluate_predicate,
)


@pytest.fixture()
def small_table_data() -> TableData:
    table = Table("t", [Column("a"), Column("b"), Column("c", ColumnType.DECIMAL)])
    columns = {
        "a": np.arange(100),
        "b": np.repeat(np.arange(10), 10),
        "c": np.linspace(0.0, 1.0, 100),
    }
    return TableData(table=table, columns=columns, full_row_count=10_000)


class TestEvaluatePredicate:
    def test_equality(self):
        values = np.array([1, 2, 2, 3])
        mask = evaluate_predicate(values, Predicate("t", "a", Operator.EQ, 2))
        assert mask.tolist() == [False, True, True, False]

    def test_ranges(self):
        values = np.array([1, 5, 10])
        assert evaluate_predicate(values, Predicate("t", "a", Operator.LT, 5)).sum() == 1
        assert evaluate_predicate(values, Predicate("t", "a", Operator.LE, 5)).sum() == 2
        assert evaluate_predicate(values, Predicate("t", "a", Operator.GT, 5)).sum() == 1
        assert evaluate_predicate(values, Predicate("t", "a", Operator.GE, 5)).sum() == 2

    def test_between_and_in(self):
        values = np.array([1, 5, 10, 20])
        between = Predicate("t", "a", Operator.BETWEEN, (5, 10))
        assert evaluate_predicate(values, between).sum() == 2
        in_list = Predicate("t", "a", Operator.IN, (1, 20))
        assert evaluate_predicate(values, in_list).sum() == 2

    @pytest.mark.parametrize(
        "items",
        [
            (3, 7),
            (3, 3, 7, 7),  # duplicates
            (3, 7.0, 2.5),  # mixed int and float
            (0.25, 7),
            (-1, 10_000, 0.125),  # values absent from the sample
            (5,),
            (),  # the empty list selects nothing
        ],
    )
    def test_in_matches_np_isin(self, items):
        rng = np.random.default_rng(11)
        columns = {
            "int": rng.integers(0, 12, size=2000),
            "float": rng.choice(np.array([0.25, 2.5, 3.0, 7.0, 9.5]), size=2000),
        }
        for values in columns.values():
            mask = evaluate_predicate(values, Predicate("t", "a", Operator.IN, items))
            assert mask.dtype == np.bool_ and mask.shape == values.shape
            assert np.array_equal(mask, np.isin(values, np.asarray(items)))


class TestTableData:
    def test_scale_multiplier(self, small_table_data):
        assert small_table_data.sample_rows == 100
        assert small_table_data.scale_multiplier == 100.0

    def test_pages_and_bytes(self, small_table_data):
        expected_bytes = 10_000 * small_table_data.row_width_bytes
        assert small_table_data.total_bytes == expected_bytes
        assert small_table_data.pages == int(np.ceil(expected_bytes / PAGE_SIZE_BYTES))

    def test_true_selectivity_single_predicate(self, small_table_data):
        predicate = Predicate("t", "b", Operator.EQ, 3)
        assert small_table_data.true_selectivity((predicate,)) == pytest.approx(0.1)

    def test_true_selectivity_conjunction_respects_correlation(self, small_table_data):
        # a < 10 and b == 0 are perfectly correlated in this data: both select
        # exactly the first ten rows, so the conjunction is 0.1, not 0.01.
        predicates = (
            Predicate("t", "a", Operator.LT, 10),
            Predicate("t", "b", Operator.EQ, 0),
        )
        assert small_table_data.true_selectivity(predicates) == pytest.approx(0.1)

    def test_true_selectivity_empty_match_has_floor(self, small_table_data):
        predicate = Predicate("t", "a", Operator.EQ, 999_999)
        selectivity = small_table_data.true_selectivity((predicate,))
        assert 0 < selectivity < 0.01

    def test_selectivity_of_other_tables_predicates_is_one(self, small_table_data):
        predicate = Predicate("other", "a", Operator.EQ, 1)
        assert small_table_data.true_selectivity((predicate,)) == 1.0

    def test_true_cardinality_scales_to_full_rows(self, small_table_data):
        predicate = Predicate("t", "b", Operator.EQ, 3)
        assert small_table_data.true_cardinality((predicate,)) == 1000

    def test_distinct_count_unique_column(self, small_table_data):
        assert small_table_data.distinct_count("a") == 10_000

    def test_distinct_count_low_cardinality(self, small_table_data):
        assert small_table_data.distinct_count("b") == 10

    def test_distinct_hint_takes_precedence(self):
        table = Table("t", [Column("a")])
        data = TableData(
            table=table,
            columns={"a": np.repeat(np.arange(5), 20)},
            full_row_count=1_000_000,
            distinct_hints={"a": 777},
        )
        assert data.distinct_count("a") == 777

    def test_value_range(self, small_table_data):
        low, high = small_table_data.value_range("a")
        assert (low, high) == (0.0, 99.0)

    def test_unknown_column_raises(self, small_table_data):
        with pytest.raises(UnknownColumnError):
            small_table_data.column_array("zzz")

    def test_summary_fields(self, small_table_data):
        summary = small_table_data.summary()
        assert summary["table"] == "t"
        assert summary["full_row_count"] == 10_000


class TestValidation:
    def test_mismatched_sample_lengths_rejected(self):
        table = Table("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            TableData(table, {"a": np.arange(10), "b": np.arange(5)}, 100)

    def test_unknown_column_data_rejected(self):
        table = Table("t", [Column("a")])
        with pytest.raises(UnknownColumnError):
            TableData(table, {"zzz": np.arange(10)}, 100)

    def test_empty_sample_rejected(self):
        table = Table("t", [Column("a")])
        with pytest.raises(SchemaError):
            TableData(table, {"a": np.array([])}, 100)

    def test_full_rows_never_below_sample(self):
        table = Table("t", [Column("a")])
        data = TableData(table, {"a": np.arange(50)}, 10)
        assert data.full_row_count == 50

    def test_build_table_data_requires_all_columns(self):
        table = Table("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            build_table_data(table, {"a": np.arange(10)}, 100)


def sampled_predicate_sets(data: TableData, rng: np.random.Generator, count: int = 40):
    """Random conjunctions over ``data``'s columns, each drawn from sample values."""
    names = sorted(data.columns)
    sets = []
    for _ in range(count):
        chosen = rng.choice(names, size=int(rng.integers(1, 4)), replace=False)
        predicates = []
        for name in chosen:
            values = data.column_array(str(name))
            low, high = sorted(float(v) for v in rng.choice(values, size=2))
            operator = [Operator.EQ, Operator.LE, Operator.GE, Operator.BETWEEN][int(rng.integers(4))]
            value = (low, high) if operator is Operator.BETWEEN else low
            predicates.append(Predicate(data.name, str(name), operator, value))
        sets.append(tuple(predicates))
    return sets


class TestMemo:
    def test_memoised_statistics_equal_a_fresh_instance(self, tiny_database):
        rng = np.random.default_rng(11)
        for table_name in tiny_database.table_names:
            data = tiny_database.table_data(table_name)
            predicate_sets = sampled_predicate_sets(data, rng)
            first = [data.true_cardinality(predicates) for predicates in predicate_sets]
            # Second pass: served from the memo, and in another predicate order.
            again = [data.true_cardinality(predicates[::-1]) for predicates in predicate_sets]
            counts = {name: (data.distinct_count(name), data.distinct_count(name)) for name in data.columns}

            fresh = TableData(
                table=data.table,
                columns={name: array.copy() for name, array in data.columns.items()},
                full_row_count=data.full_row_count,
                distinct_hints=dict(data.distinct_hints),
            )
            expected = [fresh.true_cardinality(predicates) for predicates in predicate_sets]
            assert first == again == expected
            assert counts == {name: (fresh.distinct_count(name),) * 2 for name in fresh.columns}

    def test_second_distinct_count_does_not_call_unique(self, small_table_data, monkeypatch):
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(storage.np, "unique", counting_unique)
        first = small_table_data.distinct_count("b")
        assert len(calls) == 1
        assert small_table_data.distinct_count("b") == first == 10
        assert len(calls) == 1

    def test_grown_table_does_not_inherit_a_stale_distinct_count(self):
        # A near-unique column without a hint reports the full row count, the
        # one distinct count that depends on the table's size.
        table = Table("t", [Column("a")])
        data = TableData(table, {"a": np.arange(500)}, full_row_count=10_000)
        database = Database(Schema(name="s", tables=[table]), {"t": data})
        assert data.distinct_count("a") == 10_000

        grown = database.grow_table("t", 3)

        assert grown is database.table_data("t") and grown is not data
        assert grown.full_row_count == 30_000
        assert grown.distinct_count("a") == 30_000
        assert data.distinct_count("a") == 10_000

    def test_growth_in_one_tenant_view_leaves_its_siblings_statistics(self, tiny_database):
        grower, sibling = tiny_database.tenant_view(), tiny_database.tenant_view()
        predicates = (Predicate("sales", "channel", Operator.EQ, 2),)
        before = (sibling.table_data("sales").distinct_count("channel"),
                  sibling.table_data("sales").true_cardinality(predicates))
        # Interned views share one TableData, hence one memo.
        assert grower.table_data("sales") is sibling.table_data("sales")

        grower.grow_table("sales", 4)

        assert grower.table_data("sales").true_cardinality(predicates) > before[1]
        assert (sibling.table_data("sales").distinct_count("channel"),
                sibling.table_data("sales").true_cardinality(predicates)) == before

    def test_sample_arrays_are_read_only(self, small_table_data):
        with pytest.raises(ValueError):
            small_table_data.column_array("a")[0] = 5
