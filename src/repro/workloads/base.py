"""Benchmark abstraction: a schema, data specification and template set.

A :class:`Benchmark` bundles everything needed to stand up one of the paper's
five evaluation workloads at a chosen scale factor: the logical schema, the
per-table data generators (row counts scaled by SF, value distributions), and
the query-template families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.backend import BackendLike, PlacementLike
from repro.engine.catalog import Database
from repro.engine.datagen import TableSpec
from repro.engine.schema import Schema

from .templates import QueryTemplate

#: Default number of sample rows materialised per table.  Large enough to
#: expose skew and correlation, small enough that the full benchmark suite
#: runs on a laptop.
DEFAULT_SAMPLE_ROWS = 8_000


@dataclass
class Benchmark:
    """One of the paper's evaluation benchmarks.

    Parameters
    ----------
    name:
        Short benchmark identifier (``tpch``, ``tpch_skew``, ``ssb``,
        ``tpcds``, ``imdb``).
    schema:
        Logical schema shared by every scale factor.
    table_spec_builder:
        Callable mapping a scale factor to the per-table data specs.
    templates:
        Query-template families (22 for TPC-H, 13 for SSB, 99 for TPC-DS,
        33 for IMDb/JOB).
    default_scale_factor:
        Scale factor used by the paper's headline experiments (10, or the
        fixed-size IMDb database).
    """

    name: str
    schema: Schema
    table_spec_builder: Callable[[float], list[TableSpec]]
    templates: list[QueryTemplate] = field(default_factory=list)
    default_scale_factor: float = 10.0
    description: str = ""

    def template_ids(self) -> list[str]:
        return [template.template_id for template in self.templates]

    def table_specs(self, scale_factor: float | None = None) -> list[TableSpec]:
        scale = self.default_scale_factor if scale_factor is None else scale_factor
        return self.table_spec_builder(scale)

    def create_database(
        self,
        scale_factor: float | None = None,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
        seed: int = 7,
        memory_budget_multiplier: float | None = 1.0,
        backend: BackendLike = None,
        table_backends: PlacementLike = None,
    ) -> Database:
        """Materialise the benchmark database.

        ``memory_budget_multiplier`` follows the paper: the index memory budget
        equals the multiplier times the data size (1x by default).  ``None``
        disables the budget.

        ``backend`` selects the default storage tier (a registered profile
        name such as ``"hdd"``/``"ssd"``/``"inmemory"``/``"cloud"`` or a
        :class:`~repro.engine.BackendProfile`); ``None`` keeps the paper's
        HDD constants.  ``table_backends`` places individual tables on their
        own tiers — a ``{table: backend}`` mapping of overrides.

        Raises:
            ValueError: If ``scale_factor`` is not finite and positive, or
                ``memory_budget_multiplier`` is not finite and non-negative.
        """
        if scale_factor is not None and not (math.isfinite(scale_factor) and scale_factor > 0):
            raise ValueError("scale_factor must be finite and positive")
        if memory_budget_multiplier is not None and not (
            math.isfinite(memory_budget_multiplier) and memory_budget_multiplier >= 0
        ):
            raise ValueError("memory_budget_multiplier must be finite and non-negative")
        specs = self.table_specs(scale_factor)
        database = Database.from_specs(
            schema=self.schema,
            table_specs=specs,
            sample_rows=sample_rows,
            seed=seed,
            memory_budget_bytes=None,
            backend=backend,
            table_backends=table_backends,
        )
        if memory_budget_multiplier is not None:
            database.memory_budget_bytes = int(database.data_size_bytes * memory_budget_multiplier)
        return database
