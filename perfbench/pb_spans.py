"""Spans recorded from outside the program: wrappers, self time and restore.

The benchmark times the program's layers without changing a line of it. A
:class:`Tracer` keeps spans in memory (name, parent, start, end, round); a
:class:`Patches` set installs timing wrappers on the classes and modules the
benchmark uses and puts every original back when it is removed, so an
untraced run after a traced one calls exactly the functions it would have
called without tracing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: An observer sees ``(tracer, args, kwargs, result)`` after a wrapped call
#: returns and records counts at the same boundary as the span.
Observer = Callable[["Tracer", tuple, dict, Any], None]

# Span record layout: [name id, parent span id (-1 = none), start ns, end ns, round].
NAME, PARENT, START, END, ROUND = range(5)


class Tracer:
    """In-memory span and counter recorder for one traced run.

    ``round`` tags every span and count with the round (or setup repetition)
    that caused it; ``enabled`` lets the benchmark pause recording while it
    runs its own correctness checks through the same wrapped functions.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self._stack: list[int] = []
        self.round = -1
        self.enabled = True

    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), parent, time.perf_counter_ns(), 0, self.round])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][END] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed while span {popped} was open")

    def count(self, metric: str, value: float = 1) -> None:
        self.counts[(metric, self.round)] += value

    def export(self) -> dict[str, object]:
        """Spans as plain lists, for writing out when the run ends."""
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "round"],
            "names": list(self.names),
            "spans": self.spans,
        }


def traced(tracer: Tracer, name: str, function: Callable, observer: Observer | None = None) -> Callable:
    """``function`` wrapped so each call while ``tracer.enabled`` is a span."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return function(*args, **kwargs)
        span_id = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if observer is not None:
            observer(tracer, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Timing wrappers installed on classes or modules, removable as a set.

    Only plain functions are wrapped (methods defined with ``def`` in a class
    body and module-level functions); a class attribute inherited from a base
    class is shadowed on install and deleted again on removal.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, bool, Any]] = []

    def wrap(self, owner: object, attribute: str, name: str, observer: Observer | None = None) -> None:
        own = vars(owner)
        had_own = attribute in own
        original = own[attribute] if had_own else getattr(owner, attribute)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        setattr(owner, attribute, traced(self.tracer, name, original, observer))
        self._saved.append((owner, attribute, had_own, original))

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attribute, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> int:
        return len(self._saved)


def covered_ns(children: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``children`` intervals."""
    total = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            total += child_end - child_start
            cursor = child_end
    return total


def self_times_ns(spans: list[list[int]]) -> list[int]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_ns(children.get(span_id, ()), span[START], span[END])
        for span_id, span in enumerate(spans)
    ]


def outermost(spans: list[list[int]]) -> list[bool]:
    """Per span: whether no ancestor span has the same name.

    A layer's inclusive time sums only its outermost spans, so a method that
    calls itself (or a sibling wrapped under the same name) is not counted
    twice.
    """
    flags = []
    for span in spans:
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent < 0)
    return flags
