"""The program's layers as the traced run sees them, and the per-layer metrics.

:func:`install` wraps the public functions each layer is entered through;
:func:`layer_metrics` turns the recorded spans and counts into the per-layer
metrics the traced run reports.  A span's name is ``<layer>.<operation>``,
where the layer is a module name under ``repro`` (``core.arms``,
``engine.storage``, ...).  Timings are per-round medians of the time a layer
spent inside a round; counts are per-round means over the traced rounds.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Any, Sequence

from pb_spans import END, NAME, ROUND, START, Patches, Tracer, outermost, self_times_ns
from pb_stats import median

#: Name of the span the benchmark's loop opens around one session round.
SESSION_ROUND = "api.session.round"
#: Name of the span around one fleet wave (``TuningFleet.step`` over all tenants).
FLEET_WAVE = "fleet.wave"

#: Spans of the tuner's recommend side; their self times add up to
#: ``core.tuner.recommend_self_ms``.
TUNER_RECOMMEND = "core.tuner.recommend"
TUNER_OBSERVE = "core.tuner.observe"


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


class RepeatCounter:
    """Counts ``true_cardinality`` calls whose (table, predicate set) was seen before.

    ``ratio`` is repeated calls over *all* calls, first sightings included —
    the share of calls a memo keyed on (table, predicate set) could answer.
    Only the predicates on the called table take part in the key, and their
    order does not.
    """

    def __init__(self) -> None:
        self.seen: set[tuple[str, frozenset]] = set()
        self.calls = 0
        self.repeats = 0

    def observe(self, table: str, predicates: Sequence) -> None:
        key = (table, frozenset(p for p in predicates if p.table == table))
        self.calls += 1
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)

    @property
    def ratio(self) -> float | None:
        return self.repeats / self.calls if self.calls else None


class LayerCounters:
    """Per-run state the observers need beyond the tracer's counts."""

    def __init__(self) -> None:
        self.repeats = RepeatCounter()
        self._arms_seen: "weakref.WeakKeyDictionary[object, set[str]]" = weakref.WeakKeyDictionary()

    def observe_pool(self, tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        seen = self._arms_seen.setdefault(args[0], set())
        new = [index_id for index_id in result if index_id not in seen]
        seen.update(new)
        tracer.count("core.arms.pool_size", len(result))
        tracer.count("core.arms.new_arms", len(new))

    def observe_cardinality(self, tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        self.repeats.observe(args[0].name, _argument(args, kwargs, 1, "predicates"))


def _count_len(metric: str):
    def observer(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(metric, len(result))

    return observer


def _count_call(metric: str):
    def observer(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(metric)

    return observer


def _observe_rows(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("core.context.rows", result.shape[0])


def _observe_select(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("core.oracle.candidates", len(_argument(args, kwargs, 1, "scored_arms")))
    tracer.count("core.oracle.selected", len(result.selected))


def _observe_change(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("engine.catalog.indexes_created", len(result.created))
    tracer.count("engine.catalog.indexes_dropped", len(result.dropped))


def install(patches: Patches, counters: LayerCounters) -> None:
    """Wrap every layer entry point the benchmark times."""
    from repro.core import tuner as tuner_module
    from repro.core.arms import ArmGenerator
    from repro.core.context import ContextBuilder
    from repro.core.linear_bandit import C2UCB
    from repro.core.oracle import GreedyOracle
    from repro.core.query_store import QueryStore
    from repro.core.tuner import MabTuner
    from repro.engine.catalog import Database
    from repro.engine.execution import Executor
    from repro.engine.storage import TableData
    from repro.fleet import fleet as fleet_module
    from repro.optimizer.planner import Planner
    from repro.workloads.base import Benchmark
    from repro.workloads.generator import WorkloadSequence

    wrap = patches.wrap
    wrap(QueryStore, "queries_of_interest", "core.query_store.qoi", _count_len("core.query_store.qoi_queries"))
    wrap(QueryStore, "add_round", "core.query_store.add_round")
    wrap(ArmGenerator, "generate", "core.arms.generate", counters.observe_pool)
    wrap(ContextBuilder, "build_matrix", "core.context.build", _observe_rows)
    wrap(C2UCB, "upper_confidence_scores", "core.linear_bandit.score")
    wrap(fleet_module, "batch_upper_confidence_scores", "core.linear_bandit.score",
         _count_len("fleet.batched_tenants"))
    wrap(C2UCB, "update", "core.linear_bandit.update")
    wrap(C2UCB, "forget", "core.linear_bandit.forget", _count_call("core.linear_bandit.forget_count"))
    wrap(GreedyOracle, "select", "core.oracle.select", _observe_select)
    for method in ("recommend", "begin_round", "pool_contexts", "complete_round"):
        wrap(MabTuner, method, TUNER_RECOMMEND)
    wrap(MabTuner, "observe", TUNER_OBSERVE)
    wrap(tuner_module, "compute_round_rewards", "core.rewards.compute")
    wrap(Database, "apply_configuration", "engine.catalog.apply", _observe_change)
    wrap(Database, "grow_table", "engine.catalog.grow")
    wrap(Database, "index_size_bytes", "engine.catalog.index_size",
         _count_call("engine.catalog.index_size_calls"))
    wrap(Planner, "plan", "optimizer.planner.plan")
    wrap(Executor, "execute", "engine.execution.execute")
    wrap(TableData, "true_cardinality", "engine.storage.true_cardinality", counters.observe_cardinality)
    wrap(TableData, "distinct_count", "engine.storage.distinct_count")
    wrap(Benchmark, "create_database", "engine.datagen.build")
    wrap(WorkloadSequence, "materialise", "workloads.materialise")


class _Rounds:
    """Per-round sums of inclusive and self time, by span name."""

    def __init__(self, tracer: Tracer, rounds: Sequence[int]) -> None:
        self.tracer = tracer
        self.rounds = list(rounds)
        spans = tracer.spans
        self.inclusive: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.own: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.durations: dict[str, list[int]] = defaultdict(list)
        for span, is_outermost, own in zip(spans, outermost(spans), self_times_ns(spans)):
            name = tracer.names[span[NAME]]
            duration = span[END] - span[START]
            if is_outermost:
                self.inclusive[name][span[ROUND]] += duration
            self.own[name][span[ROUND]] += own
            self.durations[name].append(duration)

    def median_ms(self, table: dict[str, dict[int, int]], name: str) -> float:
        per_round = table.get(name, {})
        return median([per_round.get(r, 0) for r in self.rounds]) / 1e6

    def count_per_round(self, metric: str) -> float:
        counts = self.tracer.counts
        return sum(counts.get((metric, r), 0) for r in self.rounds) / len(self.rounds)

    def total_count(self, metric: str) -> float:
        counts = self.tracer.counts
        return sum(counts.get((metric, r), 0) for r in self.rounds)

    def us_per_call(self, name: str) -> float | None:
        durations = self.durations.get(name)
        return sum(durations) / len(durations) / 1e3 if durations else None


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def layer_metrics(
    tracer: Tracer,
    rounds: Sequence[int],
    counters: LayerCounters,
    round_span: str,
    tenants_per_round: int,
) -> dict[str, float | None]:
    """Per-layer metrics over the traced ``rounds``; ``None`` marks n/a."""
    if not rounds:
        raise ValueError("no traced rounds")
    r = _Rounds(tracer, rounds)
    metrics: dict[str, float | None] = {
        "api.session.self_ms": r.median_ms(r.own, round_span),
        "core.query_store.qoi_ms": r.median_ms(r.inclusive, "core.query_store.qoi"),
        "core.query_store.add_round_ms": r.median_ms(r.inclusive, "core.query_store.add_round"),
        "core.query_store.qoi_queries": r.count_per_round("core.query_store.qoi_queries"),
        "core.arms.generate_ms": r.median_ms(r.inclusive, "core.arms.generate"),
        "core.arms.pool_size": r.count_per_round("core.arms.pool_size"),
        "core.arms.new_arm_ratio": _ratio(
            r.total_count("core.arms.new_arms"), r.total_count("core.arms.pool_size")
        ),
        "core.context.build_ms": r.median_ms(r.inclusive, "core.context.build"),
        "core.context.rows": r.count_per_round("core.context.rows"),
        "core.linear_bandit.score_ms": r.median_ms(r.inclusive, "core.linear_bandit.score"),
        "core.linear_bandit.update_ms": r.median_ms(r.inclusive, "core.linear_bandit.update"),
        "core.linear_bandit.forget_count": r.count_per_round("core.linear_bandit.forget_count"),
        "core.oracle.select_ms": r.median_ms(r.inclusive, "core.oracle.select"),
        "core.oracle.candidates": r.count_per_round("core.oracle.candidates"),
        "core.oracle.selected_ratio": _ratio(
            r.total_count("core.oracle.selected"), r.total_count("core.oracle.candidates")
        ),
        "core.tuner.recommend_self_ms": r.median_ms(r.own, TUNER_RECOMMEND),
        "core.tuner.observe_self_ms": r.median_ms(r.own, TUNER_OBSERVE),
        "core.rewards.compute_ms": r.median_ms(r.inclusive, "core.rewards.compute"),
        "engine.catalog.apply_ms": r.median_ms(r.inclusive, "engine.catalog.apply"),
        "engine.catalog.indexes_created": r.count_per_round("engine.catalog.indexes_created"),
        "engine.catalog.indexes_dropped": r.count_per_round("engine.catalog.indexes_dropped"),
        "engine.catalog.index_size_calls": r.count_per_round("engine.catalog.index_size_calls"),
        "engine.catalog.grow_ms": (
            median(r.durations["engine.catalog.grow"]) / 1e6
            if r.durations.get("engine.catalog.grow") else None
        ),
        "optimizer.planner.plan_ms": r.median_ms(r.inclusive, "optimizer.planner.plan"),
        "optimizer.planner.plan_us_per_query": r.us_per_call("optimizer.planner.plan"),
        "engine.execution.execute_ms": r.median_ms(r.inclusive, "engine.execution.execute"),
        "engine.execution.execute_us_per_query": r.us_per_call("engine.execution.execute"),
        "engine.storage.true_cardinality_ms": r.median_ms(r.inclusive, "engine.storage.true_cardinality"),
        "engine.storage.true_cardinality_calls": len(r.durations.get("engine.storage.true_cardinality", ()))
        / len(r.rounds),
        "engine.storage.distinct_count_ms": r.median_ms(r.inclusive, "engine.storage.distinct_count"),
        "engine.storage.distinct_count_calls": len(r.durations.get("engine.storage.distinct_count", ()))
        / len(r.rounds),
        "engine.storage.repeat_ratio": counters.repeats.ratio,
        "fleet.wave_ms": None,
        "fleet.batched_ratio": None,
    }
    if round_span == FLEET_WAVE:
        metrics["fleet.wave_ms"] = median(r.durations[FLEET_WAVE]) / 1e6
        metrics["fleet.batched_ratio"] = _ratio(
            r.total_count("fleet.batched_tenants"), tenants_per_round * len(r.rounds)
        )
    return metrics


def setup_metrics(tracer: Tracer, repetitions: int) -> dict[str, float]:
    """Set-up layer times: medians over the traced set-up repetitions."""
    r = _Rounds(tracer, range(repetitions))
    return {
        "engine.datagen.build_s": r.median_ms(r.inclusive, "engine.datagen.build") / 1e3,
        "workloads.materialise_s": r.median_ms(r.inclusive, "workloads.materialise") / 1e3,
    }
