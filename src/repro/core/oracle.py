"""Greedy super-arm oracle with diversity filtering (Section IV).

The super-arm reward is a sum of individual arm rewards under a knapsack
(memory) constraint, a monotone submodular objective for which the greedy
algorithm is a (1 - 1/e)-approximation oracle.  The implementation follows the
paper's refinement:

1. arms with negative scores are pruned;
2. the rest are visited once, best score first, and each is selected unless
   it no longer fits the remaining budget, shares its table and leading key
   column with an already selected arm (redundant seek capability), or — when
   a covering index was selected for a query — was generated only for queries
   that are already covered.

This single pass is the paper's alternation of selection and filtering
steps: all three filters are monotone (the budget only shrinks, the selected
prefixes and covered templates only grow), so an arm that a filtering step
would have dropped is still rejected when the pass reaches it.  Filtering is
per-round only; pruned arms return in later rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arms import Arm


def score_order(scores: np.ndarray) -> np.ndarray:
    """Positions of the positive ``scores``, best first, ties in pool order.

    A stable sort of the negated scores gives exactly the order of a stable
    descending sort, so equal scores keep their pool order.
    """
    order = np.argsort(-scores, kind="stable")
    return order[scores[order] > 0]


@dataclass
class OracleResult:
    """Outcome of one oracle invocation."""

    #: Pool positions of the selected arms, in selection order.
    selected: list[int]


class GreedyOracle:
    """Greedy knapsack oracle with prefix/covering diversity filtering."""

    def select(
        self,
        candidates: Sequence[int],
        arms: Sequence[Arm],
        sizes: Sequence[int],
        memory_budget_bytes: int | None,
    ) -> OracleResult:
        """Pick a super arm within ``memory_budget_bytes``.

        Args:
            candidates: Pool positions of the positively scored arms, best
                first (:func:`score_order`).
            arms: The round's arm pool.
            sizes: Each pool arm's size in bytes, in pool order.
            memory_budget_bytes: The budget; ``None`` means no budget
                constraint (every candidate that survives filtering is
                selected).

        Returns:
            The selected pool positions, in selection order.
        """
        remaining_budget = memory_budget_bytes
        # The smallest size at or after each candidate: once the remaining
        # budget is below it, no later candidate fits and the pass can stop.
        # The budget only shrinks, so stopping there is exact.
        smallest_ahead: list[int] = []
        if remaining_budget is not None and len(candidates):
            ordered_sizes = np.asarray(sizes)[np.asarray(candidates)]
            smallest_ahead = np.minimum.accumulate(ordered_sizes[::-1])[::-1].tolist()
        selected: list[int] = []
        covered_templates: set[str] = set()
        # (table, leading key column) of every selected arm.  An arm sharing
        # one is redundant for this round: the selected index already gives
        # the same (or better) seek capability, so materialising both would
        # mostly waste the budget.  Per-round only; the arm competes again
        # next round.
        selected_prefixes: set[tuple[str, str]] = set()

        for rank, position in enumerate(candidates):
            if remaining_budget is not None and remaining_budget < smallest_ahead[rank]:
                break
            size = sizes[position]
            if remaining_budget is not None and size > remaining_budget:
                # The greedy step only considers cost-feasible arms; skip and
                # keep looking for a smaller one.
                continue
            arm = arms[position]
            index = arm.index
            prefix = (index.table, index.leading_column())
            if prefix in selected_prefixes:
                continue
            # Once a covering index is selected for a query, its other arms
            # are dropped: an arm is filtered only when *every* template that
            # motivated it is already served by a selected covering index;
            # arms that also serve not-yet-covered templates stay in play.
            motivating = arm.source_templates
            if covered_templates and motivating and motivating <= covered_templates:
                continue
            selected.append(position)
            selected_prefixes.add(prefix)
            if remaining_budget is not None:
                remaining_budget -= size
            if arm.covering_for_queries:
                covered_templates |= arm.source_templates
        return OracleResult(selected=selected)
