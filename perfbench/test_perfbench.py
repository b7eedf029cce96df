"""Tests of the benchmark's own helpers (spans, statistics, wrappers).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pb_layers import LayerCounters, RepeatCounter, install  # noqa: E402
from pb_spans import Patches, Tracer, covered_ns, outermost, self_times_ns  # noqa: E402
from pb_workloads import WHY  # noqa: E402
from pb_stats import KERNEL_REFERENCE_NS, check_metric_name, normalise, tail_percentile, unit_of  # noqa: E402

from repro.engine.query import Operator, Predicate  # noqa: E402


# --------------------------------------------------------------------- #
# self time over nested spans
# --------------------------------------------------------------------- #
def span(name: int, parent: int, start: int, end: int) -> list[int]:
    return [name, parent, start, end, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, 0, 100),  # round
        span(1, 0, 10, 30),  # child
        span(2, 1, 12, 20),  # grandchild: counts against the child, not the round
        span(1, 0, 40, 50),  # second child
    ]
    assert self_times_ns(spans) == [100 - 20 - 10, 20 - 8, 8, 10]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    assert covered_ns([(10, 30), (20, 40)], 0, 100) == 30
    assert covered_ns([(20, 40), (10, 30), (50, 60)], 0, 100) == 40
    assert covered_ns([(90, 120), (-5, 5)], 0, 100) == 15
    assert covered_ns([], 0, 100) == 0


def test_outermost_skips_spans_nested_under_the_same_name():
    spans = [span(0, -1, 0, 100), span(0, 0, 10, 20), span(1, 1, 11, 12), span(1, 0, 30, 40)]
    assert outermost(spans) == [True, False, True, True]


def test_tracer_nests_spans_and_tags_rounds():
    tracer = Tracer()
    tracer.round = 3
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["a", "b"]
    assert tracer.spans[inner][1] == outer and tracer.spans[outer][1] == -1
    assert all(s[4] == 3 for s in tracer.spans)
    own = self_times_ns(tracer.spans)
    assert 0 <= own[outer] <= tracer.spans[outer][3] - tracer.spans[outer][2]


# --------------------------------------------------------------------- #
# metric names and units
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["round_p50_ms", "core.arms.generate_ms", "engine.storage.repeat_ratio",
                                  "fleet_tpch.rounds_per_s", "a-b.c_1", "9lives"])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_private", ".dot", "has space", "a/b", "ünits", "x" * 65])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_declared_metrics_have_valid_names_and_their_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for key in ("end_to_end", "per_layer", "workloads") for entry in declared[key]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert entry["unit"] == unit_of(entry["name"]), entry["name"]
    assert {entry["name"]: entry["why"] for entry in declared["workloads"]} == WHY


# --------------------------------------------------------------------- #
# the tail percentile and its sample count
# --------------------------------------------------------------------- #
def test_tail_percentile_is_p90_with_enough_samples():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90.0, 90.0, 100)
    assert tail_percentile(list(range(1000, 0, -1))) == (900.0, 90.0, 1000)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, percentile, n = tail_percentile(list(range(1, 51)))
    assert (value, percentile, n) == (40.0, 80.0, 50)
    assert sum(1 for v in range(1, 51) if v > value) == 10
    assert tail_percentile(list(range(1, 12)))[:2] == (1.0, 100.0 / 11)


def test_tail_percentile_needs_more_samples_than_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile([]) is None


# --------------------------------------------------------------------- #
# normalising to the reference machine speed
# --------------------------------------------------------------------- #
def test_normalise_cancels_a_slowdown_that_hits_rounds_and_kernel_alike():
    ref = KERNEL_REFERENCE_NS
    # The machine runs at full speed, then 1.6x slower, then full speed again.
    slowdown = [1.0] * 10 + [1.6] * 10 + [1.0] * 10
    rounds = [15.0 * factor for factor in slowdown]
    kernels = [[int(ref * factor)] * 3 for factor in slowdown]
    scaled = normalise(rounds, kernels, min_samples=9)  # this round and one either side
    assert scaled[:8] == pytest.approx([15.0] * 8)
    assert scaled[12:18] == pytest.approx([15.0] * 6)
    assert max(scaled) <= 15.0 * 1.6 and min(scaled) >= 15.0 / 1.6


def test_normalise_uses_the_median_of_nearby_kernels():
    ref = KERNEL_REFERENCE_NS
    kernels = [[ref], [ref], [50 * ref], [ref], [ref]]  # one outlier kernel
    assert normalise([1.0] * 5, kernels, min_samples=5) == pytest.approx([1.0] * 5)
    # A round with enough samples of its own is scaled by those alone.
    assert normalise([1.0, 1.0], [[2 * ref] * 9, [ref] * 9]) == pytest.approx([0.5, 1.0])
    with pytest.raises(ValueError):
        normalise([1.0], [])


# --------------------------------------------------------------------- #
# the repeat-ratio base
# --------------------------------------------------------------------- #
def test_repeat_ratio_counts_first_sightings_in_its_base():
    a = Predicate("orders", "o_totalprice", Operator.LT, 10)
    b = Predicate("orders", "o_orderdate", Operator.GE, 3)
    other = Predicate("lineitem", "l_quantity", Operator.EQ, 1)
    counter = RepeatCounter()
    counter.observe("orders", (a, b))
    counter.observe("orders", (b, a))  # same set, other order: a repeat
    counter.observe("orders", (a, b, other))  # another table's predicate is ignored: a repeat
    counter.observe("orders", (a,))  # new set
    counter.observe("lineitem", (a, b))  # same predicates, other table: a new key
    assert (counter.repeats, counter.calls) == (2, 5)
    assert counter.ratio == pytest.approx(2 / 5)
    assert RepeatCounter().ratio is None


# --------------------------------------------------------------------- #
# wrappers are removed after the traced run
# --------------------------------------------------------------------- #
class Base:
    def inherited(self):
        return "inherited"


class Child(Base):
    def own(self, value):
        return value * 2


def test_patches_restore_own_and_inherited_attributes():
    tracer = Tracer()
    own, inherited = vars(Child)["own"], Base.inherited
    patches = Patches(tracer)
    patches.wrap(Child, "own", "x.own")
    patches.wrap(Child, "inherited", "x.inherited")
    assert Child().own(2) == 4 and Child().inherited() == "inherited"
    assert len(tracer.spans) == 2
    patches.remove()
    assert vars(Child)["own"] is own
    assert "inherited" not in vars(Child) and Child.inherited is inherited
    Child().own(1)
    assert len(tracer.spans) == 2 and patches.installed == 0


def test_program_wrappers_are_removed_so_untraced_runs_call_the_originals():
    from repro.core import tuner as tuner_module
    from repro.core.query_store import QueryStore
    from repro.engine.storage import TableData
    from repro.fleet import fleet as fleet_module

    targets = [
        (QueryStore, "queries_of_interest"),
        (TableData, "true_cardinality"),
        (fleet_module, "batch_upper_confidence_scores"),
        (tuner_module, "compute_round_rewards"),
    ]
    originals = [vars(owner)[attribute] for owner, attribute in targets]
    tracer = Tracer()
    patches = Patches(tracer)
    install(patches, LayerCounters())
    assert patches.installed > len(targets)
    assert all(vars(o)[a] is not original for (o, a), original in zip(targets, originals))
    QueryStore().queries_of_interest(1)
    assert [tracer.names[s[0]] for s in tracer.spans] == ["core.query_store.qoi"]

    patches.remove()
    assert all(vars(o)[a] is original for (o, a), original in zip(targets, originals))
    QueryStore().queries_of_interest(1)
    assert len(tracer.spans) == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    patches = Patches(tracer)
    patches.wrap(Child, "own", "x.own")
    try:
        tracer.enabled = False
        assert Child().own(3) == 6
        assert tracer.spans == []
    finally:
        patches.remove()
