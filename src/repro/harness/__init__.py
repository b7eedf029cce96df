"""Experiment harness: drives tuners over workloads and reproduces every
table and figure of the paper's evaluation section.

Public API note
---------------
The harness is the *paper-reproduction* layer, built on top of
:mod:`repro.api`.  Sessions, the tuner table and the simulation and
competition drivers are imported from :mod:`repro.api`; the tuner protocol
(``Tuner``, ``Recommendation``) from :mod:`repro.interface`.  The harness
exports only its own experiments, metrics and reporting.

Attributes resolve lazily (PEP 562): the harness depends on :mod:`repro.api`
while :mod:`repro.api` imports the harness's metrics back, and lazy
resolution keeps that cycle unobservable.
"""

from __future__ import annotations

import importlib

#: name -> submodule that defines it (relative to this package).
_EXPORTS = {
    "DEFAULT_TUNERS": ".experiments",
    "ExperimentSettings": ".experiments",
    "aggregate_rl_series": ".experiments",
    "build_workload_rounds": ".experiments",
    "random_experiment": ".experiments",
    "rl_comparison_experiment": ".experiments",
    "run_workload_experiment": ".experiments",
    "shifting_experiment": ".experiments",
    "static_experiment": ".experiments",
    "table1_breakdown_experiment": ".experiments",
    "table2_database_size_experiment": ".experiments",
    "FleetSummary": ".metrics",
    "MissingBaselineError": ".metrics",
    "RoundReport": ".metrics",
    "RunReport": ".metrics",
    "SafetyReport": ".metrics",
    "rank_by_safety": ".metrics",
    "safety_reports": ".metrics",
    "speedup_percentage": ".metrics",
    "convergence_series": ".reporting",
    "exploration_cost_summary": ".reporting",
    "format_table": ".reporting",
    "speedup_summary": ".reporting",
    "table1_breakdown": ".reporting",
    "table2_database_size": ".reporting",
    "totals_summary": ".reporting",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
