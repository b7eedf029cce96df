"""Reward shaping from observed execution statistics (Section IV).

The reward of arm *i* in round *t* is::

    r_t(i) = G_t(i, w_t, s_t) - C_cre(s_{t-1}, {i})

where the gain ``G`` sums, over the round's queries, the difference between
the table's full-scan time and the observed access time through index *i*
whenever the optimiser actually used *i* (and 0 otherwise), and the creation
cost is charged only in the round in which the index was materialised.
Negative rewards are possible — an index whose use regresses a query (e.g. an
index-nested-loop blow-up) is punished, which is how the bandit recovers from
optimiser mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.catalog import ConfigurationChange
from repro.engine.execution import ExecutionResult


@dataclass
class RoundRewards:
    """Per-arm rewards for one round, plus the components for reporting."""

    gains: dict[str, float] = field(default_factory=dict)
    creation_costs: dict[str, float] = field(default_factory=dict)
    used_index_ids: set[str] = field(default_factory=set)

    def reward_for(self, index_id: str) -> float:
        return self.gains.get(index_id, 0.0) - self.creation_costs.get(index_id, 0.0)


def compute_round_rewards(
    results: list[ExecutionResult],
    change: ConfigurationChange,
    creation_cost_weight: float = 1.0,
) -> RoundRewards:
    """Shape per-arm rewards from a round's execution results.

    Parameters
    ----------
    results:
        Observed execution statistics of every query in the round.
    change:
        The configuration change applied before the round, carrying per-index
        creation times.
    creation_cost_weight:
        Multiplier on the creation-cost penalty (1.0 reproduces the paper).
    """
    rewards = RoundRewards()
    for result in results:
        for access in result.access_results:
            if access.index_id is None:
                continue
            rewards.used_index_ids.add(access.index_id)
            rewards.gains[access.index_id] = (
                rewards.gains.get(access.index_id, 0.0) + access.index_gain_seconds
            )
    for index_id, seconds in change.creation_seconds_by_index.items():
        rewards.creation_costs[index_id] = creation_cost_weight * seconds
    return rewards
