"""Workload sequencers: static, dynamic shifting and dynamic random.

These reproduce the three workload regimes of the paper's evaluation
(Section V-A):

* **static** — every template is instantiated once per round, for a fixed
  number of rounds (25 in the paper), modelling reporting workloads;
* **dynamic shifting** — templates are split into equal groups; each group
  runs for a fixed number of rounds (20) before the workload shifts to a
  disjoint group, modelling data exploration;
* **dynamic random** — each round draws a random subset of templates with a
  controlled round-to-round repeat rate (45-54 % in the paper), modelling
  truly ad-hoc cloud workloads.

:meth:`WorkloadSequence.rounds` is the one round loop for these regimes and
for the stressors of :mod:`repro.workloads.stress`.  A sequencer only plans
each round's queries (plus its shift flag and events); the loop numbers the
rounds, builds each :class:`WorkloadRound` and applies the paper's
(favourable-to-PDTool) convention for when PDTool is invoked and on which
training workload (``pdtool_training_queries``).  There are two rules:

* **segment rule** (the default) — PDTool runs on the round after a segment
  opens, trained on that segment's first round.  Round 1 always opens a
  segment, so the static regime invokes it once, on round 2; each group of
  the shifting regime opens another (rounds 2, 22, 42, 62 with the paper's
  parameters);
* **every-k rule** (``pdtool_every = k``) — PDTool runs every ``k`` rounds
  (rounds ``k + 1``, ``2k + 1``, ...), trained on the last ``k`` rounds'
  queries, as the paper does with ``k = 4`` in the random regime.

Every call of :meth:`~WorkloadSequence.rounds` restarts a private generator
from the sequence's seed, so a sequence is re-iterable: iterating it twice,
or building a second one with the same seed, replays the identical stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from repro.engine.catalog import Database
from repro.engine.query import Query

from .templates import QueryTemplate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import DatabaseEvent


@dataclass
class WorkloadRound:
    """One round (mini-workload) of the online tuning loop."""

    round_number: int
    queries: list[Query]
    #: The training workload handed to the PDTool on the rounds where the
    #: paper's protocol invokes it; ``None`` on every other round.
    pdtool_training_queries: list[Query] | None = None
    #: True when the sequencer knows the workload just shifted (for reporting).
    is_shift_round: bool = False
    #: Workload-visible environment changes (tier migrations, table growth)
    #: the driver applies to its database *before* the round's recommendation
    #: — see :mod:`repro.workloads.stress`.  Empty for the paper's three
    #: classic regimes.
    events: tuple[DatabaseEvent, ...] = ()

    @property
    def invoke_pdtool(self) -> bool:
        """True on rounds where the paper's protocol invokes the PDTool."""
        return self.pdtool_training_queries is not None

    @property
    def template_ids(self) -> set[str]:
        return {query.template_id for query in self.queries}


class PlannedRound(NamedTuple):
    """What a sequencer's :meth:`~WorkloadSequence._plan` decides for one round."""

    queries: list[Query]
    is_shift_round: bool = False
    events: tuple[DatabaseEvent, ...] = ()
    #: True when the round opens a new PDTool training segment (segment rule).
    opens_segment: bool = False


class WorkloadSequence:
    """Base class: the round loop and the PDTool protocol over a sequencer's plan."""

    #: Invoke PDTool every this many rounds (the every-k rule); ``None``
    #: selects the segment rule.
    pdtool_every: int | None = None

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 25,
        seed: int = 13,
    ) -> None:
        if not templates:
            raise ValueError("a workload sequence needs at least one template")
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        self.database = database
        self.templates = list(templates)
        self.n_rounds = n_rounds
        self.seed = seed

    def rounds(self) -> Iterator[WorkloadRound]:
        """Yield the rounds in order, replaying from the seed on every call."""
        every = self.pdtool_every
        recent: deque[list[Query]] = deque(maxlen=every)
        segment_first: list[Query] | None = None
        plans = self._plan(np.random.default_rng(self.seed))
        for round_number, plan in enumerate(plans, start=1):
            training: list[Query] | None = None
            if every is not None:
                if round_number > 1 and (round_number - 1) % every == 0:
                    training = [query for queries in recent for query in queries]
                recent.append(plan.queries)
            elif plan.opens_segment or round_number == 1:
                segment_first = plan.queries
            elif segment_first is not None:
                training, segment_first = list(segment_first), None
            yield WorkloadRound(
                round_number=round_number,
                queries=plan.queries,
                pdtool_training_queries=training,
                is_shift_round=plan.is_shift_round,
                events=plan.events,
            )

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        """Yield each round's plan in order, drawing only from ``rng``."""
        raise NotImplementedError

    def materialise(self) -> list[WorkloadRound]:
        return list(self.rounds())

    def _instantiate(
        self, templates: list[QueryTemplate], rng: np.random.Generator
    ) -> list[Query]:
        return [template.instantiate(self.database, rng) for template in templates]


class StaticWorkload(WorkloadSequence):
    """All templates, one instance each, every round."""

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        for _ in range(self.n_rounds):
            yield PlannedRound(self._instantiate(self.templates, rng))


class ShiftingWorkload(WorkloadSequence):
    """Templates split into groups; the active group changes every ``rounds_per_group``."""

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_groups: int = 4,
        rounds_per_group: int = 20,
        seed: int = 13,
    ) -> None:
        if n_groups <= 0 or rounds_per_group <= 0:
            raise ValueError("n_groups and rounds_per_group must be positive")
        n_groups = min(n_groups, len(templates))
        super().__init__(database, templates, n_groups * rounds_per_group, seed)
        self.n_groups = n_groups
        self.rounds_per_group = rounds_per_group

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        order = list(range(len(self.templates)))
        rng.shuffle(order)
        groups: list[list[QueryTemplate]] = [[] for _ in range(self.n_groups)]
        for position, template_index in enumerate(order):
            groups[position % self.n_groups].append(self.templates[template_index])
        for group_number, group in enumerate(groups):
            for position in range(self.rounds_per_group):
                yield PlannedRound(
                    self._instantiate(group, rng),
                    is_shift_round=(position == 0 and group_number > 0),
                    opens_segment=(position == 0),
                )


class RandomWorkload(WorkloadSequence):
    """Ad-hoc workload: random template subsets with a controlled repeat rate."""

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 25,
        queries_per_round: int | None = None,
        repeat_rate: float = 0.5,
        pdtool_every: int = 4,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, n_rounds, seed)
        if not 0.0 <= repeat_rate <= 1.0:
            raise ValueError("repeat_rate must be within [0, 1]")
        # Keep the total query volume similar to the static setting, as the
        # paper does ("the number of total training queries ... is similar to
        # the number of queries we had in the static setting").
        self.queries_per_round = queries_per_round or len(self.templates)
        self.repeat_rate = repeat_rate
        self.pdtool_every = max(1, pdtool_every)

    def _draw_templates(
        self, previous: list[QueryTemplate], rng: np.random.Generator
    ) -> list[QueryTemplate]:
        chosen: list[QueryTemplate] = []
        n_repeat = int(round(self.repeat_rate * self.queries_per_round)) if previous else 0
        n_repeat = min(n_repeat, len(previous))
        if n_repeat:
            repeat_positions = rng.choice(len(previous), size=n_repeat, replace=False)
            chosen.extend(previous[int(i)] for i in repeat_positions)
        # Fill the remainder preferring templates *not* seen in the previous
        # round, so the achieved round-to-round repeat rate tracks the target
        # (the paper reports 45-54 %).
        previous_ids = {template.template_id for template in previous}
        fresh_pool = [t for t in self.templates if t.template_id not in previous_ids]
        pool = fresh_pool if fresh_pool else self.templates
        while len(chosen) < self.queries_per_round:
            chosen.append(pool[int(rng.integers(0, len(pool)))])
        rng.shuffle(chosen)
        return chosen

    def _plan(self, rng: np.random.Generator) -> Iterator[PlannedRound]:
        round_templates: list[QueryTemplate] = []
        for _ in range(self.n_rounds):
            round_templates = self._draw_templates(round_templates, rng)
            yield PlannedRound(self._instantiate(round_templates, rng))


def round_to_round_repeat_rate(rounds: list[WorkloadRound]) -> float:
    """Average fraction of a round's templates already present in the previous round."""
    if len(rounds) < 2:
        return 0.0
    rates = []
    for previous, current in zip(rounds, rounds[1:]):
        if not current.queries:
            continue
        repeated = sum(
            1 for query in current.queries if query.template_id in previous.template_ids
        )
        rates.append(repeated / len(current.queries))
    return float(np.mean(rates)) if rates else 0.0
