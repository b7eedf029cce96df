"""The NoIndex baseline: never materialises any secondary index.

Every experiment in the paper reports NoIndex as the reference line: it shows
the raw cost of the workload with only the primary/foreign-key structures, and
it is occasionally *better* than PDTool when the optimiser's misestimates lead
to index overuse (IMDb).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.catalog import ConfigurationChange
from repro.engine.execution import ExecutionResult
from repro.engine.query import Query
from repro.interface import Recommendation, Tuner, TunerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import Database


class NoIndexTuner(Tuner):
    """A tuner that always recommends the empty configuration."""

    name = "NoIndex"

    def recommend(
        self,
        round_number: int,
        training_queries: list[Query] | None = None,
    ) -> Recommendation:
        del round_number, training_queries
        return Recommendation(configuration=[])

    def observe(
        self,
        round_number: int,
        queries: list[Query],
        results: list[ExecutionResult],
        change: ConfigurationChange,
    ) -> None:
        del round_number, queries, results, change

    def reset(self) -> None:
        """NoIndex keeps no state."""

    @classmethod
    def from_spec(cls, database: "Database", spec: TunerSpec) -> "NoIndexTuner":
        del database, spec  # the empty configuration needs neither
        return cls()
