"""Synthetic column-data generators for the simulated DBMS.

The original paper runs on generated TPC-H / TPC-H Skew / TPC-DS / SSB data
and the real IMDb dataset.  We reproduce the *statistical* properties that
matter for index tuning — cardinalities, skew (zipfian), value correlations
between columns, and key/foreign-key structure — with numpy-based generators.

Each table is materialised as a row *sample* of bounded size together with a
``scale_multiplier`` (full row count / sample row count).  Predicate
selectivities are measured on the sample (so skew and correlation are real,
not modelled), while row counts and byte sizes are scaled back up to the full
table size for cost accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import DataGenerationError


@dataclass(frozen=True)
class ColumnGenerator:
    """Base class for column value generators.

    Subclasses implement :meth:`generate`, returning a numpy array of
    ``n_rows`` values.  Generators must be deterministic given the supplied
    :class:`numpy.random.Generator` so that experiments are reproducible.
    """

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        raise NotImplementedError

    @property
    def approximate_distinct(self) -> int | None:
        """Distinct-value count hint used by the optimiser statistics, if known."""
        return None


@dataclass(frozen=True)
class SequentialKey(ColumnGenerator):
    """Dense unique integer keys ``start, start+1, ...`` (primary keys)."""

    start: int = 1

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        return np.arange(self.start, self.start + n_rows, dtype=np.int64)


@dataclass(frozen=True)
class UniformInt(ColumnGenerator):
    """Integers drawn uniformly from ``[low, high]`` inclusive."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise DataGenerationError(f"UniformInt: high ({self.high}) < low ({self.low})")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=n_rows, dtype=np.int64)

    @property
    def approximate_distinct(self) -> int:
        return self.high - self.low + 1


@dataclass(frozen=True)
class UniformFloat(ColumnGenerator):
    """Floats drawn uniformly from ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise DataGenerationError(f"UniformFloat: high ({self.high}) <= low ({self.low})")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n_rows)


@dataclass(frozen=True)
class ZipfianInt(ColumnGenerator):
    """Integers over ``[low, low + n_distinct)`` with zipfian frequency skew.

    ``skew`` is the zipf exponent; the paper's TPC-H Skew benchmark uses a
    zipfian factor of 4, producing extremely heavy hitters.  Rank 1 is the most
    frequent value; value-to-rank assignment is shuffled deterministically so
    that heavy hitters are not always the smallest values.

    Drawing a sample builds, shuffles and weights the whole domain (millions
    of values for the TPC-H Skew and IMDb keys), and every tuner of an
    experiment builds its own database from the same seed.  So each sample is
    drawn once per process: :meth:`generate` is memoised on the generator,
    ``n_rows`` and the bit generator's state, and a hit returns the stored
    read-only sample and moves the bit generator to the state the draw left
    it in — exactly what a fresh draw would return and leave.
    """

    low: int
    n_distinct: int
    skew: float = 1.0

    def __post_init__(self) -> None:
        if self.n_distinct <= 0:
            raise DataGenerationError("ZipfianInt: n_distinct must be positive")
        if self.skew < 0:
            raise DataGenerationError("ZipfianInt: skew must be non-negative")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        key = (self, n_rows, _frozen(rng.bit_generator.state))
        hit = _ZIPFIAN_SAMPLES.get(key)
        if hit is not None:
            _ZIPFIAN_SAMPLES.move_to_end(key)
            sample, state = hit
            rng.bit_generator.state = state
            return sample
        sample = self._draw(n_rows, rng)
        sample.setflags(write=False)
        _ZIPFIAN_SAMPLES[key] = (sample, rng.bit_generator.state)
        if len(_ZIPFIAN_SAMPLES) > _ZIPFIAN_SAMPLES_MAX:
            _ZIPFIAN_SAMPLES.popitem(last=False)
        return sample

    def _draw(self, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        ranks = np.arange(1, self.n_distinct + 1, dtype=np.float64)
        probabilities: np.ndarray
        if self.skew == 0:
            probabilities = np.full(self.n_distinct, 1.0 / self.n_distinct)
        else:
            weights = ranks ** (-self.skew)
            probabilities = weights / weights.sum()
        values = np.arange(self.low, self.low + self.n_distinct, dtype=np.int64)
        rng.shuffle(values)
        return rng.choice(values, size=n_rows, p=probabilities)

    @property
    def approximate_distinct(self) -> int:
        return self.n_distinct


#: The most zipfian samples kept: the five benchmarks together draw 59 at
#: one scale factor and seed.
_ZIPFIAN_SAMPLES_MAX = 256

#: ``(generator, n_rows, bit-generator state before the draw)`` ->
#: ``(read-only sample, bit-generator state after it)``, least recently used
#: first.
_ZIPFIAN_SAMPLES: OrderedDict[tuple[Any, ...], tuple[np.ndarray, Mapping[str, Any]]] = OrderedDict()


def _frozen(value: Any) -> Any:
    """A hashable copy of a bit generator's state (nested dicts and arrays)."""
    if isinstance(value, dict):
        return tuple((key, _frozen(item)) for key, item in sorted(value.items()))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tobytes())
    return value


@dataclass(frozen=True)
class Categorical(ColumnGenerator):
    """A small categorical domain encoded as integer codes ``0..k-1``.

    ``weights`` (optional) gives the relative frequency of each code.
    """

    n_categories: int
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_categories <= 0:
            raise DataGenerationError("Categorical: n_categories must be positive")
        if self.weights is not None and len(self.weights) != self.n_categories:
            raise DataGenerationError("Categorical: weights length must equal n_categories")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        if self.weights is None:
            probabilities = None
        else:
            total = float(sum(self.weights))
            if total <= 0:
                raise DataGenerationError("Categorical: weights must sum to a positive value")
            probabilities = np.asarray(self.weights, dtype=np.float64) / total
        return rng.choice(
            np.arange(self.n_categories, dtype=np.int64), size=n_rows, p=probabilities
        )

    @property
    def approximate_distinct(self) -> int:
        return self.n_categories


@dataclass(frozen=True)
class DateRange(ColumnGenerator):
    """Dates encoded as integer day offsets, uniform over ``n_days`` days."""

    start_day: int = 0
    n_days: int = 2557  # seven years, the TPC-H order-date range

    def __post_init__(self) -> None:
        if self.n_days <= 0:
            raise DataGenerationError("DateRange: n_days must be positive")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        return rng.integers(self.start_day, self.start_day + self.n_days, size=n_rows, dtype=np.int64)

    @property
    def approximate_distinct(self) -> int:
        return self.n_days


@dataclass(frozen=True)
class ForeignKeyRef(ColumnGenerator):
    """References into a parent key domain ``[1, parent_cardinality]``.

    ``skew`` = 0 gives uniform references; larger values give zipfian-skewed
    reference patterns (a few parents own most children), which is what makes
    the TPC-H Skew optimiser misestimates interesting.
    """

    parent_cardinality: int
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.parent_cardinality <= 0:
            raise DataGenerationError("ForeignKeyRef: parent_cardinality must be positive")

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        if self.skew == 0:
            return rng.integers(1, self.parent_cardinality + 1, size=n_rows, dtype=np.int64)
        generator = ZipfianInt(low=1, n_distinct=self.parent_cardinality, skew=self.skew)
        return generator.generate(n_rows, rng, existing)

    @property
    def approximate_distinct(self) -> int:
        return self.parent_cardinality


@dataclass(frozen=True)
class Derived(ColumnGenerator):
    """A column correlated with an existing column of the same table.

    The value is ``source * slope + offset + noise`` where ``noise`` is
    uniform integer noise in ``[-noise, +noise]``.  This deliberately violates
    the attribute-value-independence assumption used by the optimiser.
    """

    source_column: str
    slope: float = 1.0
    offset: float = 0.0
    noise: int = 0
    modulo: int | None = None

    def generate(
        self,
        n_rows: int,
        rng: np.random.Generator,
        existing: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        if self.source_column not in existing:
            raise DataGenerationError(
                f"Derived: source column {self.source_column!r} has not been generated yet"
            )
        source = existing[self.source_column].astype(np.float64)
        values: np.ndarray = source * self.slope + self.offset
        if self.noise:
            values = values + rng.integers(-self.noise, self.noise + 1, size=n_rows)
        values = np.rint(values).astype(np.int64)
        if self.modulo is not None:
            if self.modulo <= 0:
                raise DataGenerationError("Derived: modulo must be positive")
            values = np.mod(values, self.modulo)
        return values


@dataclass(frozen=True)
class TableSpec:
    """Full description of a table's data: row count plus per-column generators.

    ``generators`` maps column name to generator; generation proceeds in the
    order given so that :class:`Derived` columns can reference earlier ones.
    """

    table_name: str
    row_count: int
    generators: dict[str, ColumnGenerator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.row_count <= 0:
            raise DataGenerationError(f"table {self.table_name!r}: row_count must be positive")

    def generate_sample(
        self, sample_rows: int, rng: np.random.Generator
    ) -> dict[str, np.ndarray]:
        """Generate a sample of ``min(sample_rows, row_count)`` rows per column."""
        n_rows = int(min(sample_rows, self.row_count))
        if n_rows <= 0:
            raise DataGenerationError("sample_rows must be positive")
        data: dict[str, np.ndarray] = {}
        for column_name, generator in self.generators.items():
            data[column_name] = generator.generate(n_rows, rng, data)
        return data


def scale_rows(base_rows: int, scale_factor: float) -> int:
    """Scale a base (SF 1) row count by ``scale_factor``, keeping at least one row."""
    return max(1, int(round(base_rows * scale_factor)))
