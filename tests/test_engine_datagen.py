"""Unit tests for the synthetic column-data generators."""

import numpy as np
import pytest

from repro.engine import (
    Categorical,
    DataGenerationError,
    DateRange,
    Derived,
    ForeignKeyRef,
    SequentialKey,
    TableSpec,
    UniformFloat,
    UniformInt,
    ZipfianInt,
    scale_rows,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestSimpleGenerators:
    def test_sequential_key_is_dense_and_unique(self, rng):
        values = SequentialKey(start=5).generate(100, rng, {})
        assert values[0] == 5 and values[-1] == 104
        assert len(np.unique(values)) == 100

    def test_uniform_int_bounds(self, rng):
        values = UniformInt(10, 20).generate(1000, rng, {})
        assert values.min() >= 10 and values.max() <= 20
        assert UniformInt(10, 20).approximate_distinct == 11

    def test_uniform_int_invalid_bounds(self):
        with pytest.raises(DataGenerationError):
            UniformInt(5, 4)

    def test_uniform_float_bounds(self, rng):
        values = UniformFloat(0.0, 1.0).generate(500, rng, {})
        assert values.min() >= 0.0 and values.max() < 1.0

    def test_uniform_float_invalid(self):
        with pytest.raises(DataGenerationError):
            UniformFloat(1.0, 1.0)

    def test_date_range(self, rng):
        values = DateRange(start_day=100, n_days=10).generate(200, rng, {})
        assert values.min() >= 100 and values.max() < 110

    def test_categorical_codes_and_weights(self, rng):
        generator = Categorical(3, weights=(0.8, 0.1, 0.1))
        values = generator.generate(2000, rng, {})
        assert set(np.unique(values)) <= {0, 1, 2}
        # the heavy category dominates
        assert (values == 0).mean() > 0.6

    def test_categorical_invalid_weights(self):
        with pytest.raises(DataGenerationError):
            Categorical(3, weights=(0.5, 0.5))


class TestZipfian:
    def test_skew_concentrates_mass(self, rng):
        skewed = ZipfianInt(low=0, n_distinct=100, skew=2.0).generate(5000, rng, {})
        uniform = ZipfianInt(low=0, n_distinct=100, skew=0.0).generate(5000, rng, {})
        top_skewed = np.bincount(skewed).max() / len(skewed)
        top_uniform = np.bincount(uniform).max() / len(uniform)
        assert top_skewed > 3 * top_uniform

    def test_values_within_domain(self, rng):
        values = ZipfianInt(low=10, n_distinct=5, skew=1.0).generate(1000, rng, {})
        assert values.min() >= 10 and values.max() < 15

    def test_invalid_parameters(self):
        with pytest.raises(DataGenerationError):
            ZipfianInt(low=0, n_distinct=0)
        with pytest.raises(DataGenerationError):
            ZipfianInt(low=0, n_distinct=10, skew=-1)


class TestZipfianMemo:
    """Each zipfian sample is drawn once per process; a hit is a fresh draw's twin."""

    generator = ZipfianInt(low=7, n_distinct=4_321, skew=1.3)

    def test_hit_returns_the_draw_and_leaves_the_same_state(self):
        miss_rng = np.random.default_rng(99)
        miss = self.generator.generate(300, miss_rng, {})
        reference_rng = np.random.default_rng(99)
        reference = self.generator._draw(300, reference_rng)
        hit_rng = np.random.default_rng(99)
        hit = self.generator.generate(300, hit_rng, {})
        assert hit is miss
        assert not hit.flags.writeable
        np.testing.assert_array_equal(hit, reference)
        assert hit_rng.bit_generator.state == miss_rng.bit_generator.state
        assert hit_rng.bit_generator.state == reference_rng.bit_generator.state
        assert hit_rng.random() == reference_rng.random()

    def test_different_state_or_size_misses(self):
        base = self.generator.generate(300, np.random.default_rng(99), {})
        advanced = np.random.default_rng(99)
        advanced.random()
        other_state = self.generator.generate(300, advanced, {})
        assert other_state is not base
        assert not np.array_equal(other_state, base)
        assert self.generator.generate(200, np.random.default_rng(99), {}) is not base
        other_generator = ZipfianInt(low=7, n_distinct=4_321, skew=1.4)
        assert other_generator.generate(300, np.random.default_rng(99), {}) is not base

    def test_skewed_foreign_keys_share_the_memo(self):
        reference = ForeignKeyRef(parent_cardinality=777, skew=1.5)
        first = reference.generate(100, np.random.default_rng(3), {})
        assert reference.generate(100, np.random.default_rng(3), {}) is first


class TestForeignKeyRef:
    def test_references_in_parent_domain(self, rng):
        values = ForeignKeyRef(parent_cardinality=50).generate(1000, rng, {})
        assert values.min() >= 1 and values.max() <= 50

    def test_skewed_references(self, rng):
        values = ForeignKeyRef(parent_cardinality=1000, skew=2.0).generate(5000, rng, {})
        top_share = np.bincount(values).max() / len(values)
        assert top_share > 0.2

    def test_distinct_hint(self):
        assert ForeignKeyRef(parent_cardinality=123).approximate_distinct == 123


class TestDerived:
    def test_correlation_with_source(self, rng):
        source = UniformInt(0, 100).generate(2000, rng, {})
        derived = Derived("src", slope=2.0, offset=5.0, noise=1).generate(
            2000, rng, {"src": source}
        )
        correlation = np.corrcoef(source, derived)[0, 1]
        assert correlation > 0.95

    def test_missing_source_raises(self, rng):
        with pytest.raises(DataGenerationError):
            Derived("missing").generate(10, rng, {})

    def test_modulo_keeps_domain_bounded(self, rng):
        source = UniformInt(0, 1000).generate(500, rng, {})
        derived = Derived("src", modulo=7).generate(500, rng, {"src": source})
        assert derived.min() >= 0 and derived.max() < 7


class TestTableSpec:
    def test_generation_order_supports_derived(self, rng):
        spec = TableSpec("t", 1000, {
            "a": UniformInt(0, 10),
            "b": Derived("a", slope=1.0),
        })
        sample = spec.generate_sample(100, rng)
        assert set(sample) == {"a", "b"}
        assert len(sample["a"]) == 100

    def test_sample_capped_by_row_count(self, rng):
        spec = TableSpec("t", 50, {"a": UniformInt(0, 10)})
        sample = spec.generate_sample(1000, rng)
        assert len(sample["a"]) == 50

    def test_invalid_row_count(self):
        with pytest.raises(DataGenerationError):
            TableSpec("t", 0, {})

    def test_determinism_given_seed(self):
        spec = TableSpec("t", 1000, {"a": UniformInt(0, 1000)})
        first = spec.generate_sample(200, np.random.default_rng(9))["a"]
        second = spec.generate_sample(200, np.random.default_rng(9))["a"]
        assert np.array_equal(first, second)


def test_scale_rows():
    assert scale_rows(1000, 10) == 10_000
    assert scale_rows(1000, 0.0001) == 1
    assert scale_rows(3, 1) == 3
