"""DBA bandits reproduction: self-driving index tuning with multi-armed bandits.

This package reproduces the system described in "DBA bandits: Self-driving
index tuning under ad-hoc, analytical workloads with safety guarantees"
(ICDE 2021): a C²UCB contextual combinatorial bandit that selects secondary
indexes online from observed execution statistics, evaluated against a what-if
driven physical design tool (PDTool), a NoIndex baseline and DDQN
reinforcement-learning agents on TPC-H, TPC-H Skew, SSB, TPC-DS and IMDb/JOB
workloads.

Quick start::

    from repro import quickstart
    reports = quickstart()          # tiny TPC-H static experiment
    print(reports["MAB"].summary())

The supported programmatic surface is :mod:`repro.api` — sessions
(:class:`TuningSession`), the tuner table (:func:`create_tuner` /
:func:`registered_tuner_names`) and the simulation/competition drivers — re-exported
here for convenience.  See ``examples/`` for richer scenarios and
``benchmarks/`` for the scripts that regenerate every table and figure of the
paper.
"""

from __future__ import annotations

from .api import (
    DatabaseSpec,
    Recommendation,
    Tuner,
    TunerSpec,
    TuningSession,
    create_tuner,
    registered_tuner_names,
    run_competition,
    run_simulation,
)
from .core import C2UCB, MabConfig, MabTuner
from .engine import Database, IndexDefinition
from .harness import (
    ExperimentSettings,
    RunReport,
    run_workload_experiment,
    static_experiment,
)
from .workloads import get_benchmark

__version__ = "1.1.0"

__all__ = [
    "C2UCB",
    "Database",
    "DatabaseSpec",
    "ExperimentSettings",
    "IndexDefinition",
    "MabConfig",
    "MabTuner",
    "Recommendation",
    "RunReport",
    "Tuner",
    "TunerSpec",
    "TuningSession",
    "__version__",
    "create_tuner",
    "get_benchmark",
    "quickstart",
    "registered_tuner_names",
    "run_competition",
    "run_simulation",
    "run_workload_experiment",
    "static_experiment",
]


def quickstart(benchmark_name: str = "tpch", rounds: int = 6) -> dict[str, RunReport]:
    """Run a small static experiment comparing NoIndex, PDTool and MAB.

    Intended as a two-line smoke test of the whole stack; see
    :mod:`repro.harness.experiments` for the full experiment entry points.
    """
    settings = ExperimentSettings.quick().with_overrides(static_rounds=rounds)
    return static_experiment(benchmark_name, settings)
