"""Experiment harness: drives tuners over workloads and reproduces every
table and figure of the paper's evaluation section.

Public API note
---------------
The harness is the *paper-reproduction* layer, built on top of
:mod:`repro.api`.  Sessions, the tuner table and the simulation and
competition drivers are imported from :mod:`repro.api`; the tuner protocol
(``Tuner``, ``Recommendation``) from :mod:`repro.interface`.  The harness
exports only its own experiments, metrics and reporting.

:mod:`repro.api` imports the harness's metrics back, so they are imported
first: they depend on nothing else in ``repro``, while the experiments
import :mod:`repro.api`.
"""

from .metrics import (
    FleetSummary,
    MissingBaselineError,
    RoundReport,
    RunReport,
    SafetyReport,
    rank_by_safety,
    safety_reports,
    speedup_percentage,
)
from .experiments import (
    DEFAULT_TUNERS,
    ExperimentSettings,
    aggregate_rl_series,
    build_workload_rounds,
    random_experiment,
    rl_comparison_experiment,
    run_workload_experiment,
    shifting_experiment,
    static_experiment,
    table1_breakdown_experiment,
    table2_database_size_experiment,
)
from .reporting import (
    convergence_series,
    exploration_cost_summary,
    format_table,
    speedup_summary,
    table1_breakdown,
    table2_database_size,
    totals_summary,
)

__all__ = [
    "DEFAULT_TUNERS",
    "ExperimentSettings",
    "FleetSummary",
    "MissingBaselineError",
    "RoundReport",
    "RunReport",
    "SafetyReport",
    "aggregate_rl_series",
    "build_workload_rounds",
    "convergence_series",
    "exploration_cost_summary",
    "format_table",
    "random_experiment",
    "rank_by_safety",
    "rl_comparison_experiment",
    "run_workload_experiment",
    "safety_reports",
    "shifting_experiment",
    "speedup_percentage",
    "speedup_summary",
    "static_experiment",
    "table1_breakdown",
    "table1_breakdown_experiment",
    "table2_database_size",
    "table2_database_size_experiment",
    "totals_summary",
]
