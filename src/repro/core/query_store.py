"""Query store: workload summarisation by template (Algorithm 2, lines 1-11).

The store tracks, per query template, the last round it was seen in and its
most recent instance, so that arms and contexts can be generated for the
*queries of interest* (QoI) — the templates observed in a recent
window of rounds.  It also measures the round's shift intensity (fraction of
previously unseen templates), which the tuner uses to decide how much learned
knowledge to forget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.query import Query


@dataclass
class TemplateRecord:
    """The latest instance of one query template and the round it was seen in."""

    last_seen_round: int
    latest_query: Query


@dataclass
class RoundSummary:
    """What the store learned from one round of queries."""

    round_number: int
    new_templates: int
    known_templates: int

    @property
    def shift_intensity(self) -> float:
        """Fraction of the round's templates that were previously unseen."""
        seen = self.new_templates + self.known_templates
        return self.new_templates / seen if seen else 0.0


class QueryStore:
    """Keeps per-template statistics across rounds."""

    def __init__(self) -> None:
        self._templates: dict[str, TemplateRecord] = {}

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def add_round(self, queries: list[Query], round_number: int) -> RoundSummary:
        """Record one executed round and return its shift summary."""
        new_templates = 0
        known_templates = 0
        seen_this_round: set[str] = set()
        for query in queries:
            template_id = query.template_id
            record = self._templates.get(template_id)
            if record is None:
                self._templates[template_id] = TemplateRecord(round_number, query)
                new_templates += 1
            else:
                if template_id not in seen_this_round:
                    known_templates += 1
                record.last_seen_round = round_number
                record.latest_query = query
            seen_this_round.add(template_id)
        return RoundSummary(
            round_number=round_number,
            new_templates=new_templates,
            known_templates=known_templates,
        )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._templates)

    def queries_of_interest(self, current_round: int, window_rounds: int = 2) -> list[Query]:
        """Latest instance of every template seen within the recency window.

        The window spans the last ``window_rounds`` *completed* rounds: when
        recommending for ``current_round``, templates last seen in rounds
        ``current_round - window_rounds`` through ``current_round - 1`` are of
        interest.  ``window_rounds`` = 1 restricts the QoI to the immediately
        preceding round; larger windows keep recently-seen templates relevant,
        which helps under partially repeating (dynamic random) workloads.
        """
        horizon = current_round - window_rounds
        queries = [
            record.latest_query
            for record in self._templates.values()
            if record.last_seen_round >= horizon
        ]
        queries.sort(key=lambda query: query.template_id)
        return queries

    def clear(self) -> None:
        self._templates.clear()
