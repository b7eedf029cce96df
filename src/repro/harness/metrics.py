"""Per-round and per-run accounting of recommendation, creation and execution time.

These containers mirror the paper's metrics exactly: the total end-to-end
workload time ``C_tot = sum_t C_rec(t) + C_cre(t) + C_exc(t)`` (Section II),
its per-round series (the convergence figures), and its breakdown by component
(Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class RoundReport:
    """Observed costs of one round for one tuner."""

    round_number: int
    recommendation_seconds: float = 0.0
    creation_seconds: float = 0.0
    execution_seconds: float = 0.0
    n_queries: int = 0
    indexes_created: int = 0
    indexes_dropped: int = 0
    configuration_size: int = 0
    configuration_bytes: int = 0
    is_shift_round: bool = False
    #: Real (wall-clock) time spent in each phase of the simulation loop, as
    #: opposed to the model-seconds above.  These measure *our* overhead,
    #: never enter a total, and perfbench reads them to split a fleet wave
    #: into its phases.
    wall_recommend_seconds: float = 0.0
    wall_apply_seconds: float = 0.0
    wall_execute_seconds: float = 0.0
    wall_observe_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """The paper's per-round total (recommendation + creation + execution)."""
        return self.recommendation_seconds + self.creation_seconds + self.execution_seconds


@dataclass
class RunReport:
    """All rounds of one (tuner, benchmark, workload-regime) run."""

    tuner_name: str
    benchmark_name: str
    workload_type: str
    rounds: list[RoundReport] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_recommendation_seconds(self) -> float:
        return sum(round_report.recommendation_seconds for round_report in self.rounds)

    @property
    def total_creation_seconds(self) -> float:
        return sum(round_report.creation_seconds for round_report in self.rounds)

    @property
    def total_execution_seconds(self) -> float:
        return sum(round_report.execution_seconds for round_report in self.rounds)

    @property
    def total_seconds(self) -> float:
        return sum(round_report.total_seconds for round_report in self.rounds)

    @property
    def exploration_cost_seconds(self) -> float:
        """Recommendation + creation time: the paper's "exploration cost"."""
        return self.total_recommendation_seconds + self.total_creation_seconds

    def total_minutes(self) -> float:
        return self.total_seconds / 60.0

    def wall_phase_totals(self) -> dict[str, float]:
        """Total measured wall-clock time per simulation phase."""
        totals = {"recommend": 0.0, "apply": 0.0, "execute": 0.0, "observe": 0.0}
        for round_report in self.rounds:
            totals["recommend"] += round_report.wall_recommend_seconds
            totals["apply"] += round_report.wall_apply_seconds
            totals["execute"] += round_report.wall_execute_seconds
            totals["observe"] += round_report.wall_observe_seconds
        totals["total"] = sum(totals.values())
        return totals

    # ------------------------------------------------------------------ #
    # series for the convergence figures
    # ------------------------------------------------------------------ #
    def per_round_totals(self) -> list[float]:
        return [round_report.total_seconds for round_report in self.rounds]

    def per_round_execution(self) -> list[float]:
        return [round_report.execution_seconds for round_report in self.rounds]

    def breakdown_minutes(self) -> dict[str, float]:
        """Table I style breakdown in minutes."""
        return {
            "recommendation": self.total_recommendation_seconds / 60.0,
            "creation": self.total_creation_seconds / 60.0,
            "execution": self.total_execution_seconds / 60.0,
            "total": self.total_seconds / 60.0,
        }

    def summary(self) -> dict[str, object]:
        return {
            "tuner": self.tuner_name,
            "benchmark": self.benchmark_name,
            "workload_type": self.workload_type,
            "rounds": self.n_rounds,
            "total_seconds": round(self.total_seconds, 2),
            "recommendation_seconds": round(self.total_recommendation_seconds, 2),
            "creation_seconds": round(self.total_creation_seconds, 2),
            "execution_seconds": round(self.total_execution_seconds, 2),
        }


@dataclass
class FleetSummary:
    """Fleet-level rollup across many tenants' run reports.

    Throughput derives exclusively from the per-round ``wall_*`` fields that
    each tenant's :class:`~repro.api.TuningSession` records; the summary
    reads no clock of its own.
    """

    n_tenants: int = 0
    #: Total tenant-rounds completed (each round steps one session once).
    n_rounds: int = 0
    #: Summed model time (the paper's C_tot) across every tenant.
    model_seconds: float = 0.0
    #: Summed measured wall time of every round's loop body.
    wall_seconds: float = 0.0

    @property
    def rounds_per_second(self) -> float:
        """Tenant-rounds (session steps) completed per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_rounds / self.wall_seconds

    @classmethod
    def from_reports(cls, reports: "Mapping[str, RunReport]") -> "FleetSummary":
        """Aggregate one fleet's ``{tenant_id: RunReport}`` mapping."""
        summary = cls(n_tenants=len(reports))
        for report in reports.values():
            summary.n_rounds += report.n_rounds
            summary.model_seconds += report.total_seconds
            summary.wall_seconds += report.wall_phase_totals()["total"]
        return summary


# --------------------------------------------------------------------- #
# safety metrics: the paper's "no large regressions" story, quantified
# --------------------------------------------------------------------- #

#: A round counts as a *win* when the tuned configuration beats the NoIndex
#: baseline by at least this factor (QueryTorque's methodology).
WIN_THRESHOLD = 1.2
#: A round counts as a *regression* when the tuned configuration is slower
#: than doing nothing at all (speedup factor below 1.0).
REGRESSION_THRESHOLD = 1.0


class MissingBaselineError(KeyError, ValueError):
    """Raised when safety metrics are requested without a NoIndex baseline.

    Subclasses both ``KeyError`` and ``ValueError`` (like the name-lookup
    errors) and names the reports that *are* available.
    """

    # KeyError.__str__ reprs the message (extra quotes); render it plainly.
    __str__ = Exception.__str__


@dataclass
class SafetyReport:
    """Safety metrics of one tuner's run against the NoIndex baseline.

    The paper's pitch is that bandit tuning is *safe*: it may explore, but it
    must not leave the workload materially worse than not tuning at all.
    This report quantifies that claim from a paired ``(candidate, baseline)``
    run over the identical round stream:

    * ``per_round_regret`` — ``candidate_t - baseline_t`` seconds per round
      (positive regret = the tuner made that round slower than NoIndex);
    * ``worst_round_regression_ratio`` — the minimum per-round speedup factor
      ``baseline_t / candidate_t`` (how bad the single worst round got);
    * ``regression_rounds`` — rounds with speedup below 1.0x;
    * ``win_rounds`` — rounds with speedup at or above 1.2x;
    * ``rollback_count`` — rounds where the tuner dropped indexes, i.e.
      walked back part of its own configuration.
    """

    tuner_name: str
    baseline_name: str
    per_round_regret: list[float] = field(default_factory=list)
    per_round_speedup: list[float] = field(default_factory=list)
    rollback_count: int = 0

    @classmethod
    def from_reports(cls, candidate: RunReport, baseline: RunReport) -> "SafetyReport":
        """Pair a candidate run against its NoIndex baseline round-by-round."""
        if candidate.n_rounds != baseline.n_rounds:
            raise ValueError(
                f"cannot pair runs of different lengths: {candidate.tuner_name} has "
                f"{candidate.n_rounds} rounds, {baseline.tuner_name} has {baseline.n_rounds}"
            )
        regrets: list[float] = []
        speedups: list[float] = []
        rollbacks = 0
        for candidate_round, baseline_round in zip(candidate.rounds, baseline.rounds):
            candidate_seconds = candidate_round.total_seconds
            baseline_seconds = baseline_round.total_seconds
            regrets.append(candidate_seconds - baseline_seconds)
            if candidate_seconds > 0:
                speedups.append(baseline_seconds / candidate_seconds)
            else:
                # A zero-cost candidate round can only be a (degenerate) win.
                speedups.append(float("inf") if baseline_seconds > 0 else 1.0)
            if candidate_round.indexes_dropped > 0:
                rollbacks += 1
        return cls(
            tuner_name=candidate.tuner_name,
            baseline_name=baseline.tuner_name,
            per_round_regret=regrets,
            per_round_speedup=speedups,
            rollback_count=rollbacks,
        )

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    @property
    def n_rounds(self) -> int:
        return len(self.per_round_regret)

    @property
    def total_regret_seconds(self) -> float:
        return sum(self.per_round_regret)

    @property
    def worst_round_regression_ratio(self) -> float:
        """Minimum per-round speedup factor; 1.0 for an empty run."""
        return min(self.per_round_speedup) if self.per_round_speedup else 1.0

    @property
    def regression_rounds(self) -> list[int]:
        """1-based round positions slower than the baseline (<1.0x)."""
        return [
            position
            for position, speedup in enumerate(self.per_round_speedup, start=1)
            if speedup < REGRESSION_THRESHOLD
        ]

    @property
    def regression_count(self) -> int:
        return len(self.regression_rounds)

    @property
    def win_count(self) -> int:
        """Rounds at or above the 1.2x win bar."""
        return sum(1 for speedup in self.per_round_speedup if speedup >= WIN_THRESHOLD)

    @property
    def safety_key(self) -> tuple[float, float, float, float]:
        """Sort key: safest first.

        Safety is *bounded worst-case harm*, so the worst-round regression
        ratio leads: a tuner whose single worst round runs at 0.9x of the
        baseline is safer than one with a lone 0.1x catastrophe, however few
        regressions the latter totals (this is precisely the paper's case
        against offline tools, whose invocation rounds blow up).  Regression
        count, total regret and win count break ties.
        """
        return (
            -self.worst_round_regression_ratio,
            float(self.regression_count),
            self.total_regret_seconds,
            -float(self.win_count),
        )

    def summary(self) -> dict[str, object]:
        return {
            "tuner": self.tuner_name,
            "baseline": self.baseline_name,
            "rounds": self.n_rounds,
            "total_regret_seconds": round(self.total_regret_seconds, 3),
            "worst_round_regression_ratio": round(self.worst_round_regression_ratio, 4),
            "regression_rounds": self.regression_count,
            "win_rounds": self.win_count,
            "rollback_count": self.rollback_count,
        }


def safety_reports(
    reports: Mapping[str, RunReport], baseline_name: str = "NoIndex"
) -> dict[str, SafetyReport]:
    """Pair every non-baseline run in ``reports`` against the baseline.

    Raises :class:`MissingBaselineError` naming the available reports when
    ``baseline_name`` is absent.
    """
    if baseline_name not in reports:
        raise MissingBaselineError(
            f"no {baseline_name!r} baseline among the runs; available: "
            f"{', '.join(sorted(reports))}"
        )
    baseline = reports[baseline_name]
    return {
        name: SafetyReport.from_reports(report, baseline)
        for name, report in reports.items()
        if name != baseline_name
    }


def rank_by_safety(reports: Mapping[str, SafetyReport]) -> list[str]:
    """Tuner names ordered safest-first (ties broken by name for stability)."""
    return sorted(reports, key=lambda name: (reports[name].safety_key, name))


def speedup_percentage(baseline_seconds: float, candidate_seconds: float) -> float:
    """The paper's speed-up metric: how much faster the candidate is vs the baseline.

    Positive values mean the candidate (e.g. MAB) improves over the baseline
    (e.g. PDTool); ``speedup = (baseline - candidate) / baseline * 100``.
    """
    if baseline_seconds <= 0:
        return 0.0
    return (baseline_seconds - candidate_seconds) / baseline_seconds * 100.0
