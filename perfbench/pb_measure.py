"""One workload's run: set-up, timed episodes, checks and metrics.

Untraced runs (``trace=False``) measure the end-to-end metrics.  Traced runs
alternate untraced and traced episodes (wrappers installed for the traced
ones only) and report the per-layer metrics, the tracing overhead and the
check that both kinds of episode made the same decisions.

The timings are wall times normalised to a reference machine speed: a
fixed calibration kernel is timed around every round, and each round is
scaled by how fast the kernel ran around it (see :func:`pb_stats.normalise`).
On a shared host, a busy neighbour slows the rounds and the kernel alike, so
the normalised figures stay put while the raw ones move by up to 1.6x; the
raw figures are printed beside them.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from pb_layers import LayerCounters, RepeatCounter, install, layer_metrics, setup_metrics
from pb_spans import Patches, Tracer
from pb_stats import KERNEL_REFERENCE_NS, median, normalise, tail_percentile, time_kernel, unit_of

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPETITIONS = 5
#: Calibration-kernel calls before each set-up.
SETUP_KERNELS = 10
#: Round wall time per calibration-kernel call after it (at most 20 calls).
KERNEL_EVERY_NS = 15_000_000
#: Failure messages kept in the result (the counts are always complete).
MAX_MESSAGES = 20


@dataclass
class Outcome:
    """Everything one run measured."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_kernels: list[int] = field(default_factory=list)
    #: ``(round_ns, recommend_ns, kernel_ns, recommend_kernel_ns)`` per timed
    #: round, untraced and traced.
    untraced: list[tuple[int, float, list[int], list[int]]] = field(default_factory=list)
    traced: list[tuple[int, float, list[int], list[int]]] = field(default_factory=list)
    episodes: int = 0
    exec_model_s: float | None = None
    create_model_s: float | None = None
    peak_rss_mb: float | None = None
    end_to_end: dict[str, float | None] = field(default_factory=dict)
    #: The end-to-end timings before normalisation.
    raw: dict[str, float | None] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, float | None] = field(default_factory=dict)
    spans: dict[str, object] = field(default_factory=dict)

    def fail(self, failures: list[tuple[str, str]], where: str) -> None:
        self.failed += len({tenant for tenant, _ in failures})
        for tenant, message in failures:
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{where}: {tenant}: {message}")


def measure(scenario: Any, seconds: float, trace: bool) -> Outcome:
    """Set up, then play episodes until ``seconds`` have passed.

    Untraced runs play every variant once in full, then keep cycling
    through the variants and stop mid-episode at the deadline.  Traced runs
    play each variant twice in a row, untraced then traced, and stop after
    a traced episode once the deadline has passed.  The first round of an
    episode is played but not timed: with no queries seen yet it recommends
    nothing, so it is not a sample of a tuning round.
    """
    outcome = Outcome()
    tenants = scenario.tenant_names()
    setup_tracer = Tracer()
    for repetition in range(SETUP_REPETITIONS):
        variants = first_episode = None
        gc.collect()
        outcome.setup_kernels += time_kernel(SETUP_KERNELS)
        patches = Patches(setup_tracer)
        if trace:
            setup_tracer.round = repetition
            install(patches, LayerCounters())
        started = time.perf_counter()
        try:
            variants, first_episode = scenario.setup()
        finally:
            outcome.setup_s.append(time.perf_counter() - started)
            patches.remove()

    tracer = Tracer()
    tracer.enabled = False
    counters = LayerCounters()
    traced_rounds: list[int] = []
    #: Each variant's records from its first (untraced) episode.
    references: dict[int, list[list]] = {}
    models: list[tuple[float, float]] = []
    extras: dict[str, float] = {}
    episode = first_episode
    index = 0
    deadline = time.perf_counter() + seconds
    stopped = False
    while not stopped:
        traced = trace and index % 2 == 1
        variant = (index // 2 if trace else index) % len(variants)
        rounds = variants[variant]
        reference = references.get(variant)
        if episode is None:
            gc.collect()
            episode = scenario.episode()
        patches = Patches(tracer)
        if traced:
            counters.repeats = RepeatCounter()
            install(patches, counters)
        records: list[list] = []
        try:
            for position, workload_round in enumerate(rounds):
                if reference is not None and not trace and time.perf_counter() >= deadline:
                    break
                outcome.attempted += scenario.tenants
                timed = position > 0
                tracer.round += 1
                tracer.enabled = traced and timed
                try:
                    played = episode.play(workload_round, tracer if tracer.enabled else None)
                except Exception:
                    where = f"episode {index} round {workload_round.round_number}"
                    outcome.fail([(name, "raised") for name in tenants], where)
                    outcome.messages.append(traceback.format_exc(limit=8))
                    stopped = True
                    break
                finally:
                    tracer.enabled = False
                records.append(played.records)
                failures = list(played.failures)
                if reference is None:
                    failures += [(tenants[0], message) for message in episode.check(workload_round)]
                elif played.records != reference[position]:
                    failures += [
                        (name, "decisions differ from the variant's first (untraced) episode")
                        for name, got, want in zip(tenants, played.records, reference[position])
                        if got != want
                    ]
                if failures:
                    outcome.fail(failures, f"episode {index} round {workload_round.round_number}")
                if timed:
                    kernels = played.kernels or time_kernel(min(20, 1 + played.round_ns // KERNEL_EVERY_NS))
                    samples = outcome.traced if traced else outcome.untraced
                    samples.append((played.round_ns, played.recommend_ns, kernels,
                                    played.recommend_kernels or kernels))
                    if traced:
                        traced_rounds.append(tracer.round)
        finally:
            patches.remove()
        if traced:
            extras = episode.layer_extras()
        if reference is None and len(records) == len(rounds):
            references[variant] = records
            models.append((
                sum(r[2] for wave in records for r in wave),
                sum(r[3] for wave in records for r in wave),
            ))
            for message in episode.finish(rounds, records):  # one failed tenant-round each
                outcome.fail([("parity", message)], f"variant {variant}")
            if len(references) == len(variants):
                # Peak memory once every variant has run: later episodes
                # depend on timing, so they must not move the figure.
                outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        episode = None
        index += 1
        past = time.perf_counter() >= deadline
        if trace:
            stopped = stopped or (index % 2 == 0 and past)
        else:
            stopped = stopped or (past and len(references) == len(variants))
    outcome.episodes = index

    if len(models) == len(variants):
        # Model seconds of one episode, averaged over the variants.
        outcome.exec_model_s = sum(m[0] for m in models) / len(models)
        outcome.create_model_s = sum(m[1] for m in models) / len(models)
    if outcome.untraced and outcome.exec_model_s is not None:
        end_to_end_metrics(scenario, outcome)
    if trace and traced_rounds:
        # Layer timings are scaled like the end-to-end ones, by the kernel
        # speed over the traced rounds (set-up layers: over the set-ups).
        round_scale = KERNEL_REFERENCE_NS / median([k for s in outcome.traced for k in s[2]])
        setup_scale = KERNEL_REFERENCE_NS / median(outcome.setup_kernels)
        outcome.per_layer = {
            name: value * round_scale if value is not None and unit_of(name) in ("ms", "us") else value
            for name, value in layer_metrics(
                tracer, traced_rounds, counters, scenario.round_span, scenario.tenants
            ).items()
        }
        outcome.per_layer.update({
            name: value * setup_scale for name, value in setup_metrics(setup_tracer, SETUP_REPETITIONS).items()
        })
        outcome.per_layer["fleet.intern_hit_ratio"] = extras.get("fleet.intern_hit_ratio")
        outcome.per_layer["trace.overhead_ratio"] = median(
            normalise([s[0] for s in outcome.traced], [s[2] for s in outcome.traced])
        ) / median(normalise([s[0] for s in outcome.untraced], [s[2] for s in outcome.untraced]))
        outcome.spans = {"setup": setup_tracer.export(), "rounds": tracer.export()}
    return outcome


def end_to_end_metrics(scenario: Any, outcome: Outcome) -> None:
    """Fill ``outcome.end_to_end`` (normalised), ``outcome.raw`` and ``outcome.notes``."""
    kernels = [s[2] for s in outcome.untraced]
    setup_scale = outcome.setup_kernels and median(outcome.setup_kernels)
    waves = scenario.tenants > 1
    unit = "tenant-rounds" if waves else "rounds"
    for table, rounds_ns, recommend_ns, setup_s in (
        (outcome.raw, [s[0] for s in outcome.untraced], [s[1] for s in outcome.untraced], outcome.setup_s),
        (outcome.end_to_end,
         normalise([s[0] for s in outcome.untraced], kernels),
         normalise([s[1] for s in outcome.untraced], [s[3] for s in outcome.untraced]),
         [s * KERNEL_REFERENCE_NS / setup_scale for s in outcome.setup_s]),
    ):
        # Each fleet tenant is a client whose round completes with its
        # wave, so a wave is one latency sample per tenant.
        tail = tail_percentile([r / 1e6 for r in rounds_ns for _ in range(scenario.tenants)])
        table.update({
            "round_p50_ms": median(rounds_ns) / 1e6,
            "round_p90_ms": tail[0] if tail else None,
            "rounds_per_s": scenario.tenants * len(rounds_ns) / (sum(rounds_ns) / 1e9),
            "recommend_p50_ms": median(recommend_ns) / 1e6,
            "setup_s": median(setup_s),
        })
    outcome.end_to_end.update({
        "exec_model_s": outcome.exec_model_s,
        "create_model_s": outcome.create_model_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    })
    n = len(outcome.untraced)
    outcome.notes = {
        "round_p50_ms": f"median of {n} {'waves' if waves else 'rounds'}",
        "round_p90_ms": (
            f"p{tail[1]:.4g} of {tail[2]} {unit}" if tail else f"n/a: {n * scenario.tenants} {unit}, need 11"
        ),
        "recommend_p50_ms": (
            "per-tenant share of the wave's batched recommend pass" if waves else "TuningSession.recommend"
        ),
        "rounds_per_s": f"{unit} / seconds inside rounds",
        "setup_s": f"median of {len(outcome.setup_s)} set-ups",
    }
