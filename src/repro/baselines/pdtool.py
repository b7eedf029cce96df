"""PDTool: an AutoAdmin-style, what-if-driven physical design tool.

This re-implements the behaviour that defines the paper's commercial baseline:

* it is **invoked** with a DBA-supplied training workload (the experiment
  protocol decides when and with which queries);
* it generates candidate indexes from that workload, including merged
  (wider) candidates, and compares configurations exclusively through the
  optimiser's **what-if** estimates — it never observes actual run times.
  Like Chaudhuri & Narasayya's AutoAdmin interface, it asks the optimiser to
  cost each query *as if* a set of hypothetical indexes existed
  (``Planner.plan(query, configuration=...)``); the estimates never touch the
  data, so they inherit every cardinality misestimate of the optimiser —
  which is the Achilles' heel the paper exploits;
* it greedily selects the configuration with the best estimated
  benefit-per-byte within the memory budget;
* its recommendation time grows with (training-workload size x candidate
  count), which the paper measures directly (Table I) and which we model as a
  per-what-if-call cost, optionally clipped by an invocation time limit.

Between invocations the recommended configuration is kept unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arms import ArmGenerator
from repro.core.config import MabConfig
from repro.engine.catalog import ConfigurationChange, Database
from repro.engine.execution import ExecutionResult
from repro.engine.indexes import IndexDefinition, deduplicate
from repro.engine.query import Query
from repro.interface import Recommendation, Tuner, TunerSpec
from repro.optimizer.planner import Planner

#: Cap on one invocation's modelled running time when tuning TPC-DS dynamic
#: random (seconds): the paper restricts those invocations to one hour.
TPCDS_RANDOM_INVOCATION_LIMIT_SECONDS = 3600.0


@dataclass
class PDToolConfig:
    """Knobs of the PDTool baseline."""

    #: Modelled cost of one what-if optimiser call (model-seconds).  0.15 s per
    #: call reproduces the paper's observed invocation times (minutes for
    #: 100-query TPC-H, about an hour for 400-query TPC-DS workloads).
    what_if_call_seconds: float = 0.15
    #: Fixed per-invocation overhead (candidate generation, setup).
    invocation_overhead_seconds: float = 20.0
    #: Optional cap on a single invocation's modelled running time (the paper
    #: caps TPC-DS dynamic random invocations at one hour).
    invocation_time_limit_seconds: float | None = None
    #: Maximum number of candidate indexes evaluated per invocation.
    max_candidates: int = 4000
    #: Whether merged (wider) candidate indexes are generated; the commercial
    #: tool's index-merging phase is what wins static uniform TPC-H.
    enable_index_merging: bool = True
    #: A query counts as "served" by a selected index once that index provides
    #: at least this fraction of the query's best single-index benefit.
    served_benefit_fraction: float = 0.5


@dataclass
class _Candidate:
    """A candidate index with its per-query estimated benefits."""

    index: IndexDefinition
    size_bytes: int
    #: template id -> estimated benefit (weighted by template frequency).
    benefits: dict[str, float] = field(default_factory=dict)

    @property
    def total_benefit(self) -> float:
        return sum(self.benefits.values())


class PDToolTuner(Tuner):
    """What-if-driven index advisor invoked with a training workload."""

    name = "PDTool"

    @classmethod
    def from_spec(cls, database: Database, spec: TunerSpec) -> "PDToolTuner":
        config = PDToolConfig()
        if spec.benchmark_name == "tpcds" and spec.workload_type == "random":
            config = PDToolConfig(
                invocation_time_limit_seconds=TPCDS_RANDOM_INVOCATION_LIMIT_SECONDS
            )
        return cls(database, config)

    def __init__(self, database: Database, config: PDToolConfig | None = None) -> None:
        self.database = database
        self.config = config or PDToolConfig()
        self.planner = Planner(database)
        # Candidate generation reuses the same workload-driven generator as the
        # bandit so both tools search comparable candidate spaces.
        self._candidate_generator = ArmGenerator(MabConfig())
        self._current_configuration: list[IndexDefinition] = []
        #: Diagnostics: per-invocation (round, modelled seconds, candidate count).
        self.invocations: list[tuple[int, float, int]] = []

    # ------------------------------------------------------------------ #
    # Tuner interface
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        round_number: int,
        training_queries: list[Query] | None = None,
    ) -> Recommendation:
        if not training_queries:
            # Not an invocation round: keep the previous recommendation.
            return Recommendation(configuration=list(self._current_configuration))
        configuration, modelled_seconds, n_candidates = self._run_advisor(training_queries)
        self._current_configuration = configuration
        self.invocations.append((round_number, modelled_seconds, n_candidates))
        return Recommendation(
            configuration=list(configuration),
            recommendation_seconds=modelled_seconds,
        )

    def observe(
        self,
        round_number: int,
        queries: list[Query],
        results: list[ExecutionResult],
        change: ConfigurationChange,
    ) -> None:
        # PDTool trusts the optimiser: observed run times are never fed back.
        del round_number, queries, results, change

    def reset(self) -> None:
        self._current_configuration = []
        self.invocations = []

    # ------------------------------------------------------------------ #
    # the advisor
    # ------------------------------------------------------------------ #
    def _run_advisor(
        self, training_queries: list[Query]
    ) -> tuple[list[IndexDefinition], float, int]:
        representatives, weights = self._representative_queries(training_queries)
        candidates = self._generate_candidates(representatives)
        what_if_calls = self._estimate_benefits(candidates, representatives, weights)
        selected = self._greedy_select(candidates, representatives)
        modelled_seconds = self._modelled_recommendation_seconds(
            len(training_queries), len(representatives), what_if_calls
        )
        return selected, modelled_seconds, len(candidates)

    @staticmethod
    def _representative_queries(
        training_queries: list[Query],
    ) -> tuple[list[Query], dict[str, int]]:
        """One representative instance per template, with template frequencies."""
        representatives: dict[str, Query] = {}
        weights: dict[str, int] = {}
        for query in training_queries:
            representatives.setdefault(query.template_id, query)
            weights[query.template_id] = weights.get(query.template_id, 0) + 1
        ordered = [representatives[template] for template in sorted(representatives)]
        return ordered, weights

    def _generate_candidates(self, queries: list[Query]) -> list[_Candidate]:
        arms = self._candidate_generator.generate(queries)
        indexes = [arm.index for arm in arms.values()]
        if self.config.enable_index_merging:
            indexes.extend(self._merged_candidates(indexes))
        indexes = deduplicate(indexes)[: self.config.max_candidates]
        return [
            _Candidate(index=index, size_bytes=self.database.index_size_bytes(index))
            for index in indexes
        ]

    @staticmethod
    def _merged_candidates(indexes: list[IndexDefinition]) -> list[IndexDefinition]:
        """Index merging: combine candidates on the same table that share a
        leading key column into one wider index serving both."""
        merged: list[IndexDefinition] = []
        by_leading: dict[tuple[str, str], list[IndexDefinition]] = {}
        for index in indexes:
            by_leading.setdefault((index.table, index.leading_column()), []).append(index)
        for (table, _leading), group in by_leading.items():
            if len(group) < 2:
                continue
            longest = max(group, key=lambda ix: len(ix.key_columns))
            key_columns = list(longest.key_columns)
            include_candidates: list[str] = []
            for other in group:
                for column in other.key_columns:
                    if column not in key_columns:
                        key_columns.append(column)
                for column in other.include_columns:
                    if column not in include_candidates:
                        include_candidates.append(column)
            include_columns = tuple(
                column for column in include_candidates if column not in key_columns
            )
            merged.append(
                IndexDefinition(table, tuple(key_columns), include_columns)
            )
        return merged

    def _estimate_benefits(
        self,
        candidates: list[_Candidate],
        queries: list[Query],
        weights: dict[str, int],
    ) -> int:
        """Fill per-query benefits via what-if calls; returns the number of calls."""
        calls = 0
        baseline_costs: dict[str, float] = {}
        for query in queries:
            baseline_costs[query.query_id] = self.planner.plan(query, configuration=[]).estimated_seconds
            calls += 1
        for candidate in candidates:
            for query in queries:
                if not self._is_relevant(candidate.index, query):
                    continue
                cost = self.planner.plan(query, configuration=[candidate.index]).estimated_seconds
                calls += 1
                benefit = baseline_costs[query.query_id] - cost
                if benefit <= 0:
                    continue
                weight = weights.get(query.template_id, 1)
                candidate.benefits[query.template_id] = (
                    candidate.benefits.get(query.template_id, 0.0) + benefit * weight
                )
        return calls

    @staticmethod
    def _is_relevant(index: IndexDefinition, query: Query) -> bool:
        """Cheap relevance pre-filter: the index's table and leading column must
        matter to the query (standard candidate pruning in what-if tools)."""
        table_shape = query.shape.get(index.table)
        if table_shape is None:
            return False
        return index.leading_column() in table_shape.referenced_column_set

    def _greedy_select(
        self, candidates: list[_Candidate], queries: list[Query]
    ) -> list[IndexDefinition]:
        """Benefit-per-byte greedy selection within the memory budget."""
        budget = self.database.memory_budget_bytes
        remaining = budget if budget is not None else None
        pool = [candidate for candidate in candidates if candidate.total_benefit > 0]
        best_per_template: dict[str, float] = {}
        for candidate in pool:
            for template_id, benefit in candidate.benefits.items():
                best_per_template[template_id] = max(
                    best_per_template.get(template_id, 0.0), benefit
                )
        served_templates: set[str] = set()
        selected: list[IndexDefinition] = []
        selected_key_sets: set[tuple[str, frozenset[str]]] = set()
        del queries

        def effective_benefit(candidate: _Candidate) -> float:
            # Reads the live `served_templates` set, so the benefit shrinks
            # as earlier picks serve a candidate's templates.
            return sum(
                benefit
                for template_id, benefit in candidate.benefits.items()
                if template_id not in served_templates
            )

        while pool:
            pool.sort(
                key=lambda candidate: effective_benefit(candidate) / max(1, candidate.size_bytes),
                reverse=True,
            )
            chosen = None
            for candidate in pool:
                key_signature = (candidate.index.table, frozenset(candidate.index.key_columns))
                if key_signature in selected_key_sets:
                    continue  # a permutation of an already selected key set
                if remaining is None or candidate.size_bytes <= remaining:
                    chosen = candidate
                    break
            if chosen is None or effective_benefit(chosen) <= 0:
                break
            pool.remove(chosen)
            selected.append(chosen.index)
            selected_key_sets.add((chosen.index.table, frozenset(chosen.index.key_columns)))
            if remaining is not None:
                remaining -= chosen.size_bytes
            for template_id, benefit in chosen.benefits.items():
                threshold = self.config.served_benefit_fraction * best_per_template.get(template_id, 0.0)
                if benefit >= threshold:
                    served_templates.add(template_id)
        return selected

    def _modelled_recommendation_seconds(
        self, n_training_queries: int, n_representatives: int, what_if_calls: int
    ) -> float:
        """Model the invocation's running time from its what-if workload.

        The tool would evaluate every training query (not just one per
        template), so the call count is scaled back up by the duplication
        factor before being priced.
        """
        duplication = n_training_queries / max(1, n_representatives)
        modelled_calls = what_if_calls * duplication
        seconds = (
            self.config.invocation_overhead_seconds
            + modelled_calls * self.config.what_if_call_seconds
        )
        limit = self.config.invocation_time_limit_seconds
        if limit is not None:
            seconds = min(seconds, limit)
        return seconds
