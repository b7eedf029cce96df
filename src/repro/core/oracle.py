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

from .arms import Arm


@dataclass
class ScoredArm:
    """An arm together with its UCB score and its materialisation size."""

    arm: Arm
    score: float
    size_bytes: int

    @property
    def index_id(self) -> str:
        return self.arm.index_id


@dataclass
class OracleResult:
    """Outcome of one oracle invocation."""

    selected: list[ScoredArm]
    total_size_bytes: int
    total_score: float


def _prefix_key(scored: ScoredArm) -> tuple[str, str]:
    index = scored.arm.index
    return index.table, index.leading_column()


class GreedyOracle:
    """Greedy knapsack oracle with prefix/covering diversity filtering."""

    def select(
        self,
        scored_arms: list[ScoredArm],
        memory_budget_bytes: int | None,
    ) -> OracleResult:
        """Pick a super arm within ``memory_budget_bytes``.

        ``None`` means no budget constraint (every positively scored arm that
        survives filtering is selected).
        """
        candidates = [scored for scored in scored_arms if scored.score > 0]
        candidates.sort(key=lambda scored: scored.score, reverse=True)

        remaining_budget = memory_budget_bytes
        selected: list[ScoredArm] = []
        covered_templates: set[str] = set()
        # (table, leading key column) of every selected arm.  An arm sharing
        # one is redundant for this round: the selected index already gives
        # the same (or better) seek capability, so materialising both would
        # mostly waste the budget.  Per-round only; the arm competes again
        # next round.
        selected_prefixes: set[tuple[str, str]] = set()

        for scored in candidates:
            if remaining_budget is not None and scored.size_bytes > remaining_budget:
                # The greedy step only considers cost-feasible arms; skip and
                # keep looking for a smaller one.
                continue
            prefix = _prefix_key(scored)
            if prefix in selected_prefixes:
                continue
            if self._covered_by_covering_index(scored, covered_templates):
                continue
            selected.append(scored)
            selected_prefixes.add(prefix)
            if remaining_budget is not None:
                remaining_budget -= scored.size_bytes
            if scored.arm.covering_for_queries:
                covered_templates |= scored.arm.source_templates

        total_size = sum(scored.size_bytes for scored in selected)
        total_score = sum(scored.score for scored in selected)
        return OracleResult(selected=selected, total_size_bytes=total_size, total_score=total_score)

    @staticmethod
    def _covered_by_covering_index(scored: ScoredArm, covered_templates: set[str]) -> bool:
        """Once a covering index is selected for a query, its other arms are dropped.

        An arm is filtered only when *every* template that motivated it is
        already served by a selected covering index; arms that also serve
        not-yet-covered templates stay in play.
        """
        if not covered_templates:
            return False
        motivating = scored.arm.source_templates
        return bool(motivating) and motivating <= covered_templates
