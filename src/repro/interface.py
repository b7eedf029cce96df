"""The tuner interface shared by MAB, PDTool, NoIndex and the RL baselines.

The session driver (:class:`repro.api.TuningSession`) interacts with every
tuner through this small protocol, which encodes the paper's round structure:

1. ``recommend`` — before a round's (unknown) workload arrives, propose the
   index configuration to materialise.  Online tuners may only use what they
   observed in previous rounds; PDTool-style tools additionally receive a
   training workload on the rounds where the paper's protocol invokes them.
2. the driver materialises the configuration and executes the round;
3. ``observe`` — the tuner receives the executed queries, their observed
   execution statistics and the configuration change (with per-index creation
   times), from which it can shape rewards for the next round.

This module is the implementation home of the protocol; the supported public
import path is :mod:`repro.api`, which re-exports :class:`Tuner`,
:class:`TunerSpec` and :class:`Recommendation` next to the tuner table and
the session drivers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.catalog import ConfigurationChange
from repro.engine.execution import ExecutionResult
from repro.engine.indexes import IndexDefinition
from repro.engine.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import Database


@dataclass(frozen=True)
class TunerSpec:
    """Typed, picklable context handed to every tuner factory.

    The spec describes *where* the tuner will run, not *how* it learns —
    per-algorithm hyper-parameters stay in each tuner's own config object.
    """

    #: Benchmark the tuner will face (``tpch``, ``tpcds``, ...; "" if ad hoc).
    benchmark_name: str = ""
    #: Workload regime (``static``, ``shifting`` or ``random``).
    workload_type: str = "static"


@dataclass
class Recommendation:
    """A tuner's proposal for one round.

    ``recommendation_seconds`` is the round's C_rec.  A tuner that models its
    recommendation cost (PDTool's tuning time, zero for NoIndex) sets it
    explicitly.  ``None``, the default and what the MAB and DDQN tuners
    return, means "charge the wall time the session measured around the
    ``recommend`` call" — so C_rec is timed once, by
    :class:`~repro.api.TuningSession`, and never by the tuner itself.
    """

    configuration: list[IndexDefinition] = field(default_factory=list)
    #: C_rec charged for this round, or ``None`` for the session's measured
    #: wall time of the ``recommend`` call.
    recommendation_seconds: float | None = None


class Tuner(ABC):
    """Abstract online index tuner."""

    #: Human-readable name used in reports (e.g. ``MAB``, ``PDTool``).
    name: str = "tuner"

    @abstractmethod
    def recommend(
        self,
        round_number: int,
        training_queries: list[Query] | None = None,
    ) -> Recommendation:
        """Propose the configuration to materialise for the upcoming round.

        ``training_queries`` is non-``None`` only on rounds where the
        experiment protocol invokes an offline tool (PDTool) with a DBA-style
        training workload; online tuners must ignore it.
        """

    @abstractmethod
    def observe(
        self,
        round_number: int,
        queries: list[Query],
        results: list[ExecutionResult],
        change: ConfigurationChange,
    ) -> None:
        """Receive the executed round's observed statistics."""

    def reset(self) -> None:
        """Forget all learned state (used between experiment repetitions).

        A reset tuner must be *bit-identical* to a freshly constructed one:
        rerunning the same workload from round 0 produces the same decisions
        (internal random streams restart from their seeds).
        """

    @classmethod
    def from_spec(cls, database: "Database", spec: TunerSpec) -> "Tuner":
        """Build this tuner for one database under an experiment spec.

        The default covers tuners whose constructor is ``cls(database)`` with
        optional extras; tuners that specialise per benchmark or workload
        regime (e.g. PDTool's TPC-DS random time cap) override it.  This is
        the factory the tuner table (:func:`repro.api.create_tuner`) calls.
        """
        return cls(database)
