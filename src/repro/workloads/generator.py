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

A sequencer yields :class:`WorkloadRound` objects; PDTool-style tuners may
look at ``pdtool_training_queries`` which encodes the (favourable-to-PDTool)
training-workload convention the paper uses for each regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.engine.catalog import Database
from repro.engine.query import Query

from .templates import QueryTemplate


@dataclass
class WorkloadRound:
    """One round (mini-workload) of the online tuning loop."""

    round_number: int
    queries: list[Query]
    #: True on rounds where the paper's protocol invokes the PDTool.
    invoke_pdtool: bool = False
    #: The training workload handed to the PDTool on invocation rounds.
    pdtool_training_queries: list[Query] = field(default_factory=list)
    #: True when the sequencer knows the workload just shifted (for reporting).
    is_shift_round: bool = False
    #: Workload-visible environment changes (tier migrations, table growth)
    #: the driver applies to its database *before* the round's recommendation
    #: — see :mod:`repro.workloads.stress`.  Empty for the paper's three
    #: classic regimes.
    events: tuple = ()

    @property
    def template_ids(self) -> set[str]:
        return {query.template_id for query in self.queries}


class WorkloadSequence:
    """Base class: materialises rounds lazily from templates and a database."""

    def __init__(self, database: Database, templates: list[QueryTemplate], seed: int = 13) -> None:
        if not templates:
            raise ValueError("a workload sequence needs at least one template")
        self.database = database
        self.templates = list(templates)
        self.rng = np.random.default_rng(seed)

    def rounds(self) -> Iterator[WorkloadRound]:
        raise NotImplementedError

    def materialise(self) -> list[WorkloadRound]:
        return list(self.rounds())

    def _instantiate(self, templates: list[QueryTemplate]) -> list[Query]:
        return [template.instantiate(self.database, self.rng) for template in templates]


class StaticWorkload(WorkloadSequence):
    """All templates, one instance each, every round."""

    def __init__(
        self,
        database: Database,
        templates: list[QueryTemplate],
        n_rounds: int = 25,
        seed: int = 13,
    ) -> None:
        super().__init__(database, templates, seed)
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        self.n_rounds = n_rounds

    def rounds(self) -> Iterator[WorkloadRound]:
        first_round_queries: list[Query] | None = None
        for round_number in range(1, self.n_rounds + 1):
            queries = self._instantiate(self.templates)
            if first_round_queries is None:
                first_round_queries = queries
            # The paper invokes PDTool once, after the first round of new
            # queries, using those queries as the (representative) training
            # workload.
            yield WorkloadRound(
                round_number=round_number,
                queries=queries,
                invoke_pdtool=(round_number == 2),
                pdtool_training_queries=list(first_round_queries) if round_number == 2 else [],
            )


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
        super().__init__(database, templates, seed)
        if n_groups <= 0 or rounds_per_group <= 0:
            raise ValueError("n_groups and rounds_per_group must be positive")
        self.n_groups = min(n_groups, len(self.templates))
        self.rounds_per_group = rounds_per_group
        order = list(range(len(self.templates)))
        self.rng.shuffle(order)
        self.groups: list[list[QueryTemplate]] = [[] for _ in range(self.n_groups)]
        for position, template_index in enumerate(order):
            self.groups[position % self.n_groups].append(self.templates[template_index])

    def rounds(self) -> Iterator[WorkloadRound]:
        round_number = 0
        for group_number, group in enumerate(self.groups):
            group_first_round: list[Query] | None = None
            for position in range(self.rounds_per_group):
                round_number += 1
                queries = self._instantiate(group)
                if group_first_round is None:
                    group_first_round = queries
                # PDTool is invoked on the round after each shift (rounds
                # 2, 22, 42, 62 with the paper's parameters), trained on the
                # new group's queries.
                invoke = position == 1
                yield WorkloadRound(
                    round_number=round_number,
                    queries=queries,
                    invoke_pdtool=invoke,
                    pdtool_training_queries=list(group_first_round) if invoke else [],
                    is_shift_round=(position == 0 and group_number > 0),
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
        super().__init__(database, templates, seed)
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        if not 0.0 <= repeat_rate <= 1.0:
            raise ValueError("repeat_rate must be within [0, 1]")
        self.n_rounds = n_rounds
        # Keep the total query volume similar to the static setting, as the
        # paper does ("the number of total training queries ... is similar to
        # the number of queries we had in the static setting").
        self.queries_per_round = queries_per_round or len(self.templates)
        self.repeat_rate = repeat_rate
        self.pdtool_every = max(1, pdtool_every)

    def _draw_templates(self, previous: list[QueryTemplate]) -> list[QueryTemplate]:
        chosen: list[QueryTemplate] = []
        n_repeat = int(round(self.repeat_rate * self.queries_per_round)) if previous else 0
        n_repeat = min(n_repeat, len(previous))
        if n_repeat:
            repeat_positions = self.rng.choice(len(previous), size=n_repeat, replace=False)
            chosen.extend(previous[int(i)] for i in repeat_positions)
        # Fill the remainder preferring templates *not* seen in the previous
        # round, so the achieved round-to-round repeat rate tracks the target
        # (the paper reports 45-54 %).
        previous_ids = {template.template_id for template in previous}
        fresh_pool = [t for t in self.templates if t.template_id not in previous_ids]
        pool = fresh_pool if fresh_pool else self.templates
        while len(chosen) < self.queries_per_round:
            chosen.append(pool[int(self.rng.integers(0, len(pool)))])
        self.rng.shuffle(chosen)
        return chosen

    def rounds(self) -> Iterator[WorkloadRound]:
        previous_templates: list[QueryTemplate] = []
        history: list[Query] = []
        for round_number in range(1, self.n_rounds + 1):
            round_templates = self._draw_templates(previous_templates)
            queries = self._instantiate(round_templates)
            # The paper invokes PDTool every 4 rounds (rounds 5, 9, 13, ...),
            # trained on the queries seen since the previous invocation.
            invoke = round_number > 1 and (round_number - 1) % self.pdtool_every == 0
            training = list(history[-self.pdtool_every * self.queries_per_round:]) if invoke else []
            yield WorkloadRound(
                round_number=round_number,
                queries=queries,
                invoke_pdtool=invoke,
                pdtool_training_queries=training,
            )
            history.extend(queries)
            previous_templates = round_templates


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
