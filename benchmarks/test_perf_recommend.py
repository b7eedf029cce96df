"""Micro-benchmark of the recommend/observe hot loop (perf tracking).

Measures the steady-state ``score -> select -> update`` cycle of the C²UCB
learner at realistic arm counts and compares it against a faithful replica of
the seed implementation (full ``np.linalg.inv`` after every update, 3-operand
``np.einsum`` confidence widths).  Results are emitted to
``benchmarks/results/BENCH_recommend.json`` so the perf trajectory is tracked
from PR to PR.

Modes
-----
* default — full measurement; asserts the incremental implementation is at
  least 5x faster than the seed at 500 arms (the ISSUE acceptance bar).
* smoke (``REPRO_BENCH_SMOKE=1``) — fewer rounds and only a generous absolute
  p95 ceiling, suitable for shared CI runners where comparative timing is
  flaky.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import DatabaseSpec, SimulationOptions, TuningSession, create_tuner
from repro.core.linear_bandit import C2UCB
from repro.workloads import StaticWorkload, get_benchmark

from conftest import write_result

SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DIMENSION = 64
ARM_COUNTS = (100, 500, 2000)
SUPER_ARM_SIZE = 5
ROUNDS = 30 if SMOKE_MODE else 150
WARMUP_ROUNDS = 5
#: Generous absolute ceiling for the smoke assertion (shared CI runners).
SMOKE_P95_CEILING_SECONDS = 0.050
SPEEDUP_FLOOR = 5.0


class SeedC2UCB:
    """Verbatim replica of the seed learner's scoring and update math.

    Kept here (not in ``src``) purely as the benchmark baseline: it lazily
    recomputes ``V^{-1}`` with ``np.linalg.inv`` after every update and pays
    the unoptimised three-operand ``einsum`` for the confidence widths — the
    exact hot-loop costs the incremental implementation removes.
    """

    def __init__(self, dimension: int, regularisation: float = 1.0):
        self.dimension = dimension
        self._v = regularisation * np.eye(dimension)
        self._b = np.zeros(dimension)
        self._v_inverse: np.ndarray | None = None

    def _inverse(self) -> np.ndarray:
        if self._v_inverse is None:
            self._v_inverse = np.linalg.inv(self._v)
        return self._v_inverse

    def upper_confidence_scores(self, contexts: np.ndarray, alpha: float) -> np.ndarray:
        theta = self._inverse() @ self._b
        widths = np.einsum("ij,jk,ik->i", contexts, self._inverse(), contexts)
        return contexts @ theta + alpha * np.sqrt(np.maximum(widths, 0.0))

    def update(self, contexts: np.ndarray, rewards: np.ndarray) -> None:
        self._v = self._v + contexts.T @ contexts
        self._b = self._b + contexts.T @ rewards
        self._v_inverse = None


def run_recommend_loop(bandit, n_arms: int, rounds: int, seed: int = 3) -> np.ndarray:
    """Drive the steady-state loop; returns per-round latencies in seconds."""
    rng = np.random.default_rng(seed)
    contexts = rng.normal(size=(n_arms, DIMENSION))
    latencies = []
    for round_number in range(WARMUP_ROUNDS + rounds):
        started = time.perf_counter()
        scores = bandit.upper_confidence_scores(contexts, alpha=1.0)
        chosen = np.argpartition(scores, -SUPER_ARM_SIZE)[-SUPER_ARM_SIZE:]
        bandit.update(contexts[chosen], rng.normal(size=SUPER_ARM_SIZE))
        if round_number >= WARMUP_ROUNDS:
            latencies.append(time.perf_counter() - started)
    return np.asarray(latencies)


def summarise(latencies: np.ndarray) -> dict:
    return {
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 4),
        "p95_ms": round(float(np.percentile(latencies, 95)) * 1e3, 4),
        "mean_ms": round(float(latencies.mean()) * 1e3, 4),
        "rounds_per_second": round(1.0 / float(latencies.mean()), 1),
    }


def test_recommend_loop_perf(results_dir):
    payload = {
        "dimension": DIMENSION,
        "super_arm_size": SUPER_ARM_SIZE,
        "rounds": ROUNDS,
        "smoke_mode": SMOKE_MODE,
        "incremental": {},
        "seed_baseline": {},
    }
    for n_arms in ARM_COUNTS:
        fast = run_recommend_loop(C2UCB(dimension=DIMENSION), n_arms, ROUNDS)
        payload["incremental"][str(n_arms)] = summarise(fast)
        if not SMOKE_MODE:
            naive = run_recommend_loop(SeedC2UCB(dimension=DIMENSION), n_arms, ROUNDS)
            payload["seed_baseline"][str(n_arms)] = summarise(naive)
            payload["seed_baseline"][str(n_arms)]["speedup_vs_seed"] = round(
                float(np.percentile(naive, 50)) / float(np.percentile(fast, 50)), 2
            )

    path = results_dir / "BENCH_recommend.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [f"recommend-loop micro-benchmark (d={DIMENSION}, smoke={SMOKE_MODE})"]
    for n_arms in ARM_COUNTS:
        entry = payload["incremental"][str(n_arms)]
        line = (
            f"  {n_arms:>5} arms: p50 {entry['p50_ms']:.3f} ms, "
            f"p95 {entry['p95_ms']:.3f} ms, {entry['rounds_per_second']:.0f} rounds/s"
        )
        baseline = payload["seed_baseline"].get(str(n_arms))
        if baseline:
            line += f"  ({baseline['speedup_vs_seed']:.1f}x vs seed)"
        lines.append(line)
    write_result(results_dir, "BENCH_recommend", "\n".join(lines))

    if SMOKE_MODE:
        p95_at_500 = payload["incremental"]["500"]["p95_ms"] / 1e3
        assert p95_at_500 < SMOKE_P95_CEILING_SECONDS, (
            f"recommend p95 at 500 arms regressed: {p95_at_500 * 1e3:.2f} ms "
            f"(ceiling {SMOKE_P95_CEILING_SECONDS * 1e3:.0f} ms)"
        )
    else:
        speedup = payload["seed_baseline"]["500"]["speedup_vs_seed"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"incremental recommend loop only {speedup:.1f}x faster than the "
            f"seed implementation at 500 arms (floor {SPEEDUP_FLOOR}x)"
        )


# --------------------------------------------------------------------- #
# session-step overhead (the per-round cost of the public API machinery)
# --------------------------------------------------------------------- #
SESSION_ROUNDS = 10 if SMOKE_MODE else 40
#: Generous ceiling on the pure session bookkeeping overhead per round.
SESSION_NOOP_P95_CEILING_SECONDS = 0.050


def test_session_step_overhead(results_dir):
    """Emit a ``session_step`` timing series next to the recommend-loop numbers.

    Two probes: a no-op round (NoIndex tuner, empty query batch) isolates the
    pure :class:`TuningSession` bookkeeping overhead, and a MAB session over a
    tiny SSB static workload gives the realistic end-to-end per-round latency
    of the public API path.
    """
    spec = DatabaseSpec("ssb", scale_factor=0.1, sample_rows=200, seed=4)
    benchmark = get_benchmark("ssb")
    workload = StaticWorkload(
        spec.create(), benchmark.templates[:4], n_rounds=SESSION_ROUNDS, seed=1
    ).materialise()

    series: dict[str, dict] = {}

    noop_database = spec.create()
    noop_session = TuningSession(
        noop_database,
        create_tuner("NoIndex", noop_database),
        SimulationOptions(benchmark_name="ssb"),
    )
    latencies = []
    for _ in range(SESSION_ROUNDS):
        started = time.perf_counter()
        noop_session.step([])
        latencies.append(time.perf_counter() - started)
    series["noop_overhead"] = summarise(np.asarray(latencies))

    mab_database = spec.create()
    mab_session = TuningSession(
        mab_database,
        create_tuner("MAB", mab_database),
        SimulationOptions(benchmark_name="ssb"),
    )
    latencies = []
    for workload_round in workload:
        started = time.perf_counter()
        mab_session.step_workload_round(workload_round)
        latencies.append(time.perf_counter() - started)
    series["mab_tiny_ssb"] = summarise(np.asarray(latencies))
    series["mab_tiny_ssb"]["wall_phase_totals_s"] = {
        phase: round(seconds, 4)
        for phase, seconds in mab_session.report.wall_phase_totals().items()
    }

    path = results_dir / "BENCH_recommend.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["session_step"] = {"rounds": SESSION_ROUNDS, "smoke_mode": SMOKE_MODE, **series}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    write_result(
        results_dir,
        "BENCH_session_step",
        "\n".join(
            [
                f"session-step overhead (rounds={SESSION_ROUNDS}, smoke={SMOKE_MODE})",
                f"  no-op round:  p50 {series['noop_overhead']['p50_ms']:.3f} ms, "
                f"p95 {series['noop_overhead']['p95_ms']:.3f} ms",
                f"  MAB tiny SSB: p50 {series['mab_tiny_ssb']['p50_ms']:.3f} ms, "
                f"p95 {series['mab_tiny_ssb']['p95_ms']:.3f} ms",
            ]
        ),
    )

    noop_p95 = series["noop_overhead"]["p95_ms"] / 1e3
    assert noop_p95 < SESSION_NOOP_P95_CEILING_SECONDS, (
        f"TuningSession bookkeeping overhead regressed: p95 {noop_p95 * 1e3:.2f} ms "
        f"per no-op round (ceiling {SESSION_NOOP_P95_CEILING_SECONDS * 1e3:.0f} ms)"
    )
