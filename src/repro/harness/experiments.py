"""One entry point per table/figure of the paper's evaluation section.

Every function below regenerates one experiment.  The paper's full parameters
(scale factor 10, 25/80 rounds, 10 RL repetitions) are the defaults of
:class:`ExperimentSettings`; :meth:`ExperimentSettings.quick` scales the
experiments down so the complete benchmark suite runs in minutes on a laptop
while preserving every qualitative comparison.

The experiments are built entirely on :mod:`repro.api`: tuners are resolved
through the registry (:func:`repro.api.create_tuner`) and every run is a
:class:`repro.api.TuningSession` driven by :func:`repro.api.run_competition`,
so ``workers > 1`` fans the tuners of one experiment out across processes.

Index of experiments (see DESIGN.md for the full mapping):

* Figures 2 & 3 — :func:`static_experiment`
* Figures 4 & 5 — :func:`shifting_experiment`
* Figures 6 & 7 — :func:`random_experiment`
* Table I        — :func:`table1_breakdown_experiment`
* Table II       — :func:`table2_database_size_experiment`
* Figure 8       — :func:`rl_comparison_experiment`
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api.competition import DatabaseSpec, run_competition
from repro.api.registry import TunerSpec
from repro.api.session import SimulationOptions
from repro.engine.catalog import Database
from repro.workloads.base import Benchmark
from repro.workloads.generator import (
    RandomWorkload,
    ShiftingWorkload,
    StaticWorkload,
    WorkloadRound,
)
from repro.workloads.registry import get_benchmark

from .metrics import RunReport

#: Tuners shown in the paper's Figures 2-7.
DEFAULT_TUNERS = ("NoIndex", "PDTool", "MAB")


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment entry point."""

    scale_factor: float = 10.0
    sample_rows: int = 4000
    seed: int = 7
    workload_seed: int = 13
    noise_sigma: float = 0.03
    memory_budget_multiplier: float = 1.0

    static_rounds: int = 25
    shifting_groups: int = 4
    shifting_rounds_per_group: int = 20
    random_rounds: int = 25
    random_repeat_rate: float = 0.5
    pdtool_every_random_rounds: int = 4

    rl_rounds: int = 100
    rl_repetitions: int = 10

    #: PDTool invocation-time cap applied to TPC-DS dynamic random (seconds),
    #: matching the paper's 1-hour restriction.
    tpcds_random_pdtool_limit_seconds: float = 3600.0

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Reduced settings for the pytest-benchmark suite."""
        return cls(
            sample_rows=2000,
            static_rounds=8,
            shifting_groups=3,
            shifting_rounds_per_group=5,
            random_rounds=8,
            rl_rounds=16,
            rl_repetitions=2,
        )

    def with_overrides(self, **overrides: object) -> "ExperimentSettings":
        return replace(self, **overrides)

    def tuner_spec(self, benchmark_name: str = "", workload_type: str = "static") -> TunerSpec:
        """The :class:`repro.api.TunerSpec` these settings imply for one regime."""
        return TunerSpec(
            benchmark_name=benchmark_name,
            workload_type=workload_type,
            pdtool_invocation_limit_seconds=self.tpcds_random_pdtool_limit_seconds,
        )

    def database_spec(self, benchmark_name: str) -> DatabaseSpec:
        """A picklable factory for this experiment's databases."""
        return DatabaseSpec(
            benchmark_name=benchmark_name,
            scale_factor=self.scale_factor,
            sample_rows=self.sample_rows,
            seed=self.seed,
            memory_budget_multiplier=self.memory_budget_multiplier,
        )


# --------------------------------------------------------------------- #
# workload factories
# --------------------------------------------------------------------- #
def build_workload_rounds(
    benchmark: Benchmark,
    database: Database,
    workload_type: str,
    settings: ExperimentSettings,
    n_rounds_override: int | None = None,
) -> list[WorkloadRound]:
    """Materialise the workload sequence for one regime."""
    workload_type = workload_type.lower()
    if workload_type == "static":
        sequence = StaticWorkload(
            database,
            benchmark.templates,
            n_rounds=n_rounds_override or settings.static_rounds,
            seed=settings.workload_seed,
        )
    elif workload_type == "shifting":
        sequence = ShiftingWorkload(
            database,
            benchmark.templates,
            n_groups=settings.shifting_groups,
            rounds_per_group=settings.shifting_rounds_per_group,
            seed=settings.workload_seed,
        )
    elif workload_type == "random":
        sequence = RandomWorkload(
            database,
            benchmark.templates,
            n_rounds=n_rounds_override or settings.random_rounds,
            repeat_rate=settings.random_repeat_rate,
            pdtool_every=settings.pdtool_every_random_rounds,
            seed=settings.workload_seed,
        )
    else:
        raise KeyError(f"unknown workload type {workload_type!r}")
    return sequence.materialise()


# --------------------------------------------------------------------- #
# generic runner
# --------------------------------------------------------------------- #
def run_workload_experiment(
    benchmark_name: str,
    workload_type: str,
    tuners: tuple[str, ...] = DEFAULT_TUNERS,
    settings: ExperimentSettings | None = None,
    n_rounds_override: int | None = None,
    workers: int = 1,
) -> dict[str, RunReport]:
    """Run the named tuners over one benchmark/regime; returns reports by tuner.

    ``workers`` is forwarded to :func:`repro.api.run_competition`: each tuner
    already owns its database, so ``workers > 1`` runs them in parallel
    processes with an identical merged result.
    """
    settings = settings or ExperimentSettings()
    benchmark = get_benchmark(benchmark_name)
    database_spec = settings.database_spec(benchmark.name)
    workload_rounds = build_workload_rounds(
        benchmark, database_spec.create(), workload_type, settings, n_rounds_override
    )
    options = SimulationOptions(
        noise_sigma=settings.noise_sigma,
        benchmark_name=benchmark.name,
        workload_type=workload_type,
    )
    spec = settings.tuner_spec(benchmark.name, workload_type)
    return run_competition(
        database_spec,
        {name: (name, spec) for name in tuners},
        workload_rounds,
        options,
        workers=workers,
    )


# --------------------------------------------------------------------- #
# per-figure / per-table entry points
# --------------------------------------------------------------------- #
def static_experiment(
    benchmark_name: str,
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = DEFAULT_TUNERS,
    workers: int = 1,
) -> dict[str, RunReport]:
    """Figures 2 and 3: static workload convergence and totals."""
    return run_workload_experiment(
        benchmark_name, "static", tuners, settings, workers=workers
    )


def shifting_experiment(
    benchmark_name: str,
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = DEFAULT_TUNERS,
    workers: int = 1,
) -> dict[str, RunReport]:
    """Figures 4 and 5: dynamic shifting workload convergence and totals."""
    return run_workload_experiment(
        benchmark_name, "shifting", tuners, settings, workers=workers
    )


def random_experiment(
    benchmark_name: str,
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = DEFAULT_TUNERS,
    workers: int = 1,
) -> dict[str, RunReport]:
    """Figures 6 and 7: dynamic random workload convergence and totals."""
    return run_workload_experiment(
        benchmark_name, "random", tuners, settings, workers=workers
    )


def table1_breakdown_experiment(
    benchmark_names: tuple[str, ...] = ("ssb", "tpch", "tpch_skew", "tpcds", "imdb"),
    workload_types: tuple[str, ...] = ("static", "shifting", "random"),
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = ("PDTool", "MAB"),
    workers: int = 1,
) -> dict[str, dict[str, dict[str, RunReport]]]:
    """Table I: recommendation/creation/execution breakdown for all 15 cells."""
    breakdown: dict[str, dict[str, dict[str, RunReport]]] = {}
    for workload_type in workload_types:
        breakdown[workload_type] = {}
        for benchmark_name in benchmark_names:
            breakdown[workload_type][benchmark_name] = run_workload_experiment(
                benchmark_name, workload_type, tuners, settings, workers=workers
            )
    return breakdown


def table2_database_size_experiment(
    benchmark_names: tuple[str, ...] = ("tpch", "tpch_skew"),
    scale_factors: tuple[float, ...] = (1.0, 10.0, 100.0),
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = ("PDTool", "MAB"),
    workers: int = 1,
) -> dict[str, dict[float, dict[str, RunReport]]]:
    """Table II: static TPC-H / TPC-H Skew at different database sizes."""
    settings = settings or ExperimentSettings()
    results: dict[str, dict[float, dict[str, RunReport]]] = {}
    for benchmark_name in benchmark_names:
        results[benchmark_name] = {}
        for scale_factor in scale_factors:
            scaled = settings.with_overrides(scale_factor=scale_factor)
            results[benchmark_name][scale_factor] = run_workload_experiment(
                benchmark_name, "static", tuners, scaled, workers=workers
            )
    return results


def rl_comparison_experiment(
    benchmark_name: str = "tpch",
    settings: ExperimentSettings | None = None,
    tuners: tuple[str, ...] = ("PDTool", "MAB", "DDQN", "DDQN_SC"),
    workers: int = 1,
) -> dict[str, list[RunReport]]:
    """Figure 8: MAB vs DDQN / DDQN-SC vs PDTool on static TPC-H (Skew).

    The randomised RL agents are repeated ``rl_repetitions`` times; every tuner
    returns a list of reports (deterministic tuners are run once and their
    report repeated for uniform downstream aggregation).
    """
    settings = settings or ExperimentSettings()
    repetition_reports: dict[str, list[RunReport]] = {name: [] for name in tuners}
    for repetition in range(settings.rl_repetitions):
        repetition_settings = settings.with_overrides(
            workload_seed=settings.workload_seed + repetition,
            seed=settings.seed + repetition,
        )
        reports = run_workload_experiment(
            benchmark_name,
            "static",
            tuners,
            repetition_settings,
            n_rounds_override=settings.rl_rounds,
            workers=workers,
        )
        for name in tuners:
            repetition_reports[name].append(reports[name])
    return repetition_reports


def aggregate_rl_series(reports: list[RunReport]) -> dict[str, list[float]]:
    """Mean, median and inter-quartile range of per-round totals across repetitions."""
    if not reports:
        return {"mean": [], "median": [], "q1": [], "q3": []}
    series = np.array([report.per_round_totals() for report in reports])
    return {
        "mean": series.mean(axis=0).tolist(),
        "median": np.median(series, axis=0).tolist(),
        "q1": np.percentile(series, 25, axis=0).tolist(),
        "q3": np.percentile(series, 75, axis=0).tolist(),
    }
