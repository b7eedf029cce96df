"""Tests for the benchmark definitions, templates and workload sequencers."""

import numpy as np
import pytest

from repro.engine import Operator
from repro.workloads import (
    BENCHMARK_NAMES,
    RandomWorkload,
    ShiftingWorkload,
    StaticWorkload,
    available_benchmarks,
    get_benchmark,
    round_to_round_repeat_rate,
)
from repro.workloads.templates import PredicateTemplate, ValueMode, between, eq, in_list, top_fraction


class TestRegistry:
    def test_all_paper_benchmarks_available(self):
        assert set(BENCHMARK_NAMES) <= set(available_benchmarks())

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("nonexistent")

    def test_name_normalisation(self):
        assert get_benchmark("TPC-H").name == "tpch"


class TestBenchmarkDefinitions:
    @pytest.mark.parametrize("name,template_count", [
        ("tpch", 22),
        ("tpch_skew", 22),
        ("ssb", 13),
        ("tpcds", 99),
        ("imdb", 33),
    ])
    def test_template_counts_match_paper(self, name, template_count):
        assert len(get_benchmark(name).templates) == template_count

    @pytest.mark.parametrize("name", ["tpch", "ssb", "tpcds", "imdb"])
    def test_templates_reference_real_schema_columns(self, name):
        """Every template's tables, joins, predicates and payloads must exist."""
        benchmark = get_benchmark(name)
        schema = benchmark.schema
        for template in benchmark.templates:
            for table in template.tables:
                schema.table(table)
            for predicate in template.predicates:
                schema.validate_columns(predicate.table, [predicate.column])
                assert predicate.table in template.tables
            for join in template.joins:
                schema.validate_columns(join.left_table, [join.left_column])
                schema.validate_columns(join.right_table, [join.right_column])
            for table, columns in template.payload.items():
                schema.validate_columns(table, columns)

    def test_template_ids_unique(self):
        for name in BENCHMARK_NAMES:
            ids = get_benchmark(name).template_ids()
            assert len(ids) == len(set(ids))

    def test_row_counts_scale_with_scale_factor(self):
        benchmark = get_benchmark("tpch")
        small = {spec.table_name: spec.row_count for spec in benchmark.table_specs(1)}
        large = {spec.table_name: spec.row_count for spec in benchmark.table_specs(10)}
        assert large["lineitem"] == 10 * small["lineitem"]
        assert large["nation"] == small["nation"]  # fixed-size dimension

    def test_imdb_is_fixed_size(self):
        benchmark = get_benchmark("imdb")
        one = {spec.table_name: spec.row_count for spec in benchmark.table_specs(1)}
        ten = {spec.table_name: spec.row_count for spec in benchmark.table_specs(10)}
        assert one == ten

    def test_create_database_applies_memory_budget_multiplier(self):
        benchmark = get_benchmark("ssb")
        database = benchmark.create_database(scale_factor=0.1, sample_rows=200, memory_budget_multiplier=0.5)
        assert database.memory_budget_bytes == pytest.approx(database.data_size_bytes * 0.5, rel=0.01)

    def test_tpch_skew_data_more_skewed_than_uniform(self):
        uniform = get_benchmark("tpch").create_database(scale_factor=0.1, sample_rows=500, seed=2)
        skewed = get_benchmark("tpch_skew").create_database(scale_factor=0.1, sample_rows=500, seed=2)

        def top_share(database):
            values = database.table_data("lineitem").column_array("l_quantity")
            _, counts = np.unique(values, return_counts=True)
            return counts.max() / counts.sum()

        assert top_share(skewed) > 3 * top_share(uniform)


class TestTemplates:
    def test_instantiation_produces_valid_queries(self, tpch_benchmark, tpch_small_database):
        rng = np.random.default_rng(1)
        for template in tpch_benchmark.templates:
            query = template.instantiate(tpch_small_database, rng)
            assert query.template_id == template.template_id
            assert query.tables == template.tables
            assert len(query.predicates) == len(template.predicates)

    def test_instances_get_unique_ids_and_fresh_literals(self, tpch_benchmark, tpch_small_database):
        rng = np.random.default_rng(1)
        template = tpch_benchmark.templates[5]  # Q6: range-heavy
        first = template.instantiate(tpch_small_database, rng)
        second = template.instantiate(tpch_small_database, rng)
        assert first.query_id != second.query_id
        assert first.predicates != second.predicates

    def test_predicate_helpers(self, tiny_database_readonly, rng):
        helpers = [
            eq("sales", "channel"),
            in_list("sales", "channel", 2),
            between("sales", "day", 0.1, 0.2),
            top_fraction("sales", "amount"),
        ]
        for template in helpers:
            predicate = template.instantiate(tiny_database_readonly, rng)
            assert predicate.table == template.table
            assert predicate.column == template.column
            selectivity = tiny_database_readonly.table_data("sales").true_selectivity((predicate,))
            assert 0 < selectivity <= 1

    def test_fixed_mode_requires_value(self, tiny_database_readonly, rng):
        template = PredicateTemplate("sales", "day", Operator.EQ, mode=ValueMode.FIXED)
        with pytest.raises(ValueError):
            template.instantiate(tiny_database_readonly, rng)
        fixed = PredicateTemplate(
            "sales", "day", Operator.EQ, mode=ValueMode.FIXED, fixed_value=5
        )
        assert fixed.instantiate(tiny_database_readonly, rng).value == 5


class TestSequencers:
    @pytest.fixture()
    def templates(self, ssb_benchmark):
        return ssb_benchmark.templates

    @pytest.fixture()
    def database(self, ssb_benchmark):
        return ssb_benchmark.create_database(scale_factor=0.1, sample_rows=200, seed=4)

    def test_static_rounds_contain_all_templates(self, database, templates):
        rounds = StaticWorkload(database, templates, n_rounds=3).materialise()
        assert len(rounds) == 3
        for workload_round in rounds:
            assert len(workload_round.queries) == len(templates)
        assert rounds[1].invoke_pdtool
        assert rounds[1].pdtool_training_queries
        assert not rounds[0].invoke_pdtool and not rounds[2].invoke_pdtool

    def test_shifting_groups_are_disjoint(self, database, templates):
        sequence = ShiftingWorkload(database, templates, n_groups=3, rounds_per_group=2)
        rounds = sequence.materialise()
        assert len(rounds) == 6
        group_templates = [
            {query.template_id for query in rounds[i].queries} for i in (0, 2, 4)
        ]
        assert group_templates[0] & group_templates[1] == set()
        assert group_templates[1] & group_templates[2] == set()
        # PDTool invoked on the second round of each group
        assert [r.round_number for r in rounds if r.invoke_pdtool] == [2, 4, 6]
        # shift flag on the first round of each new group
        assert [r.round_number for r in rounds if r.is_shift_round] == [3, 5]

    def test_random_repeat_rate_close_to_target(self, database, templates):
        rounds = RandomWorkload(
            database, templates, n_rounds=12, repeat_rate=0.5, seed=2
        ).materialise()
        rate = round_to_round_repeat_rate(rounds)
        assert 0.35 <= rate <= 0.7

    def test_random_pdtool_schedule(self, database, templates):
        rounds = RandomWorkload(database, templates, n_rounds=13, pdtool_every=4).materialise()
        assert [r.round_number for r in rounds if r.invoke_pdtool] == [5, 9, 13]
        invoked = rounds[4]
        assert invoked.pdtool_training_queries  # trained on the queries since last invocation

    def test_invalid_parameters(self, database, templates):
        with pytest.raises(ValueError):
            StaticWorkload(database, templates, n_rounds=0)
        with pytest.raises(ValueError):
            RandomWorkload(database, templates, repeat_rate=2.0)
        with pytest.raises(ValueError):
            ShiftingWorkload(database, templates, n_groups=0)
        with pytest.raises(ValueError):
            StaticWorkload(database, [], n_rounds=1)

    def test_sequences_are_reproducible_given_seed(self, database, templates):
        first = StaticWorkload(database, templates, n_rounds=2, seed=9).materialise()
        # a database generated identically yields identical literals
        second = StaticWorkload(database, templates, n_rounds=2, seed=9).materialise()
        assert [q.predicates for q in first[0].queries] == [q.predicates for q in second[0].queries]
