"""Shared configuration for the paper-reproduction benchmark suite.

Every file in this directory regenerates one table or figure of the paper's
evaluation section (docs/BENCHMARKS.md has the index).  The experiments
run at a reduced default scale — smaller table samples and fewer rounds than
the paper — so the whole suite finishes in minutes on a laptop; the *shape* of
each comparison (who wins, rough factors, where crossovers fall) is what the
suite verifies and reports.

Formatted result tables are written to ``benchmarks/results/`` so they can be
inspected after a ``pytest benchmarks/`` run, and the most important series
are also echoed to stdout.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import ExperimentSettings

#: Directory where formatted result tables are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: Scale profile: "quick" (default) or "paper" (full parameters), selected via
#: the REPRO_BENCH_PROFILE environment variable.
PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick")
if PROFILE not in ("quick", "paper"):
    raise pytest.UsageError(
        f"REPRO_BENCH_PROFILE={PROFILE!r} is not a profile; use 'quick' or 'paper'"
    )


def benchmark_settings() -> ExperimentSettings:
    """Experiment settings for the active profile."""
    if PROFILE == "paper":
        return ExperimentSettings()
    return ExperimentSettings.quick()


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return benchmark_settings()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, content: str) -> None:
    """Persist a formatted result table and echo it for the console log."""
    path = results_dir / f"{name}.txt"
    path.write_text(content + "\n")
    print(f"\n===== {name} =====\n{content}\n")
