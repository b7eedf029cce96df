"""The four benchmark workloads: set-up, closed-loop rounds and their checks.

Each workload is a closed loop with one client: the benchmark sends a round
only after the previous one has completed (``observe`` returned, or the
whole fleet wave finished).  From the run's seed a workload generates a few
*variants*, each a fixed list of rounds.  An *episode* plays one variant
from a fresh database and a fresh tuner (or fleet), so every episode of a
variant does identical work and makes identical decisions.  Several
variants average out how much one generated sequence happens to cost.  The
seed only drives round generation: the program receives the generated
rounds, nothing else.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from pb_layers import FLEET_WAVE, SESSION_ROUND
from pb_spans import Tracer
from pb_stats import time_kernel

#: Every workload's database: SF 1, 2000-row samples, fixed data seed.
DATABASE = {"scale_factor": 1.0, "sample_rows": 2000, "seed": 7}

#: One tenant's decision in one round: round number, materialised index ids,
#: model execution seconds and model creation + drop seconds.
Record = tuple[int, tuple[str, ...], float, float]


@dataclass
class Played:
    """What one round (or one fleet wave) did."""

    round_ns: int
    recommend_ns: float
    #: One record per tenant, in tenant order.
    records: list[Record]
    #: Correctness-check failures of this round as ``(tenant, message)``.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Calibration-kernel times taken around the round, and around its
    #: recommend phase (the fleet only; sessions time the kernel afterwards).
    kernels: list[int] = field(default_factory=list)
    recommend_kernels: list[int] = field(default_factory=list)


def variant_seed(seed: int, variant: int) -> int:
    """The round-generation seed of one variant of a run's workload."""
    return int(np.random.SeedSequence([seed, variant]).generate_state(1)[0])


def _record(database: Any, report: Any) -> Record:
    return (
        report.round_number,
        tuple(sorted(database.materialised_index_ids)),
        report.execution_seconds,
        report.creation_seconds,
    )


def _budget_failure(database: Any, tenant: str) -> list[tuple[str, str]]:
    budget = database.memory_budget_bytes
    if budget is not None and database.used_index_bytes > budget:
        return [(tenant, f"configuration uses {database.used_index_bytes} B, budget {budget} B")]
    return []


# --------------------------------------------------------------------- #
# single-session workloads
# --------------------------------------------------------------------- #
class SessionEpisode:
    """One MAB ``TuningSession`` on a fresh database, stepped round by round."""

    def __init__(self, scenario: "SessionScenario", database: Any) -> None:
        from repro.api import SimulationOptions, TuningSession, create_tuner

        self.scenario = scenario
        self.database = database
        self.session = TuningSession(
            database,
            create_tuner("MAB", database),
            SimulationOptions(benchmark_name=scenario.benchmark, workload_type=scenario.regime),
        )

    def play(self, workload_round: Any, tracer: Tracer | None) -> Played:
        session = self.session
        span = tracer.begin(SESSION_ROUND) if tracer is not None else -1
        started = time.perf_counter_ns()
        if workload_round.events:
            session.apply_events(workload_round.events)
        recommend_started = time.perf_counter_ns()
        self.recommendation = session.recommend(round_number=workload_round.round_number)
        recommended = time.perf_counter_ns()
        # The kernel runs next to the recommend phase too (its time is taken
        # off the round), so recommend_p50_ms is scaled by the machine speed
        # of that moment.
        if tracer is not None:
            calibration = tracer.begin("perfbench.calibration")
        beside_recommend = time_kernel(1)
        if tracer is not None:
            tracer.end(calibration)
        executing = time.perf_counter_ns()
        session.execute(workload_round.queries)
        report = session.observe(is_shift_round=workload_round.is_shift_round)
        finished = time.perf_counter_ns()
        if tracer is not None:
            tracer.end(span)
        return Played(
            round_ns=finished - started - (executing - recommended),
            recommend_ns=recommended - recommend_started,
            records=[_record(self.database, report)],
            failures=_budget_failure(self.database, "session"),
            recommend_kernels=beside_recommend,
        )

    def check(self, workload_round: Any) -> list[str]:
        """Workload-specific checks, run after each round of a variant's first episode."""
        return []

    def finish(self, rounds: list[Any], records: list[list[Record]]) -> list[str]:
        """Checks over a variant's first complete episode; returns failure messages."""
        return []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer figures the episode reads from the program itself."""
        return {}


class SessionScenario:
    """A MAB session over one benchmark's generated rounds."""

    tenants = 1
    round_span = SESSION_ROUND
    episode_type = SessionEpisode
    #: Variants generated per run (see the module docstring).
    variants = 4

    def __init__(self, name: str, why: str, benchmark: str, regime: str, seed: int, n_rounds: int) -> None:
        self.name = name
        self.why = why
        self.benchmark = benchmark
        self.regime = regime
        self.seed = seed
        self.n_rounds = n_rounds

    def tenant_names(self) -> list[str]:
        return ["session"]

    def params(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "regime": self.regime,
            "tuner": "MAB",
            "database": DATABASE,
            "variants": self.variants,
            "rounds_per_episode": self.n_rounds,
            "clients": 1,
            "loop": "closed",
        }

    def build_database(self) -> Any:
        from repro.workloads import get_benchmark

        return get_benchmark(self.benchmark).create_database(**DATABASE)

    def generate(self, database: Any, seed: int) -> list[Any]:
        raise NotImplementedError

    def setup(self) -> tuple[list[list[Any]], SessionEpisode]:
        """Database build, round materialisation and tuner construction."""
        database = self.build_database()
        variants = [self.generate(database, variant_seed(self.seed, v)) for v in range(self.variants)]
        return variants, self.episode_type(self, database)

    def episode(self) -> SessionEpisode:
        return self.episode_type(self, self.build_database())


class StaticScenario(SessionScenario):
    def __init__(self, name: str, why: str, benchmark: str, seed: int, n_rounds: int = 25) -> None:
        super().__init__(name, why, benchmark, "static", seed, n_rounds)

    def params(self) -> dict[str, object]:
        return {**super().params(), "templates": "all"}

    def generate(self, database: Any, seed: int) -> list[Any]:
        from repro.workloads import StaticWorkload, get_benchmark

        templates = get_benchmark(self.benchmark).templates
        return StaticWorkload(database, templates, n_rounds=self.n_rounds, seed=seed).materialise()


class AdhocScenario(SessionScenario):
    """The paper's dynamic random regime: ~half of each round's templates repeat."""

    def __init__(self, name: str, why: str, benchmark: str, seed: int, n_rounds: int = 25) -> None:
        super().__init__(name, why, benchmark, "random", seed, n_rounds)

    def params(self) -> dict[str, object]:
        return {**super().params(), "templates": "all", "queries_per_round": "one per template",
                "repeat_rate": 0.5}

    def generate(self, database: Any, seed: int) -> list[Any]:
        from repro.workloads import RandomWorkload, get_benchmark

        templates = get_benchmark(self.benchmark).templates
        return RandomWorkload(database, templates, n_rounds=self.n_rounds, seed=seed).materialise()


class IngestEpisode(SessionEpisode):
    """A session whose checks compare its database with a freshly built one.

    The reference replays the episode's history — growth events and the
    applied configurations, in order — on a database built from scratch
    after every growth event, so a stale size or statistics cache in the
    tuned database shows up as a mismatch.
    """

    def __init__(self, scenario: "SessionScenario", database: Any) -> None:
        super().__init__(scenario, database)
        self.history: list[tuple[str, Any]] = []

    def check(self, workload_round: Any) -> list[str]:
        if workload_round.events:
            self.history.append(("events", workload_round.events))
        self.history.append(("configuration", list(self.recommendation.configuration)))
        if not workload_round.events:
            return []
        reference = self.scenario.build_database()
        for kind, payload in self.history:
            if kind == "events":
                for event in payload:
                    event.apply(reference)
            else:
                reference.apply_configuration(payload)
        indexes = {ix.index_id: ix for ix in self.database.materialised_indexes}
        for arm in self.session.tuner.known_arms.values():
            indexes.setdefault(arm.index_id, arm.index)
        return compare_databases(self.database, reference, indexes.values(), workload_round.queries)


def compare_databases(database: Any, reference: Any, indexes: Any, queries: Any) -> list[str]:
    """Mismatches between what two databases report; empty when they agree."""
    mismatches = []

    def expect(what: str, got: object, want: object) -> None:
        if got != want:
            mismatches.append(f"{what}: {got!r} != fresh {want!r}")

    for table in database.table_names:
        expect(f"{table} rows", database.table_data(table).full_row_count,
               reference.table_data(table).full_row_count)
        expect(f"{table} statistics rows", database.statistics.row_count(table),
               reference.statistics.row_count(table))
    expect("data size", database.data_size_bytes, reference.data_size_bytes)
    expect("materialised", database.materialised_index_ids, reference.materialised_index_ids)
    expect("used index bytes", database.used_index_bytes, reference.used_index_bytes)
    for index in indexes:
        expect(f"size of {index.index_id}", database.index_size_bytes(index), reference.index_size_bytes(index))
    for query in queries:
        for table in query.tables:
            predicates = query.predicates_for(table)
            expect(f"{query.query_id} rows on {table}",
                   database.table_data(table).true_cardinality(predicates),
                   reference.table_data(table).true_cardinality(predicates))
    return mismatches


class IngestScenario(StaticScenario):
    """A static stream in which every few rounds lineorder grows (ingest)."""

    episode_type = IngestEpisode

    def __init__(self, name: str, why: str, seed: int, n_rounds: int = 25,
                 growth_every: int = 4, row_multiplier: float = 1.1) -> None:
        super().__init__(name, why, "ssb", seed, n_rounds)
        self.growth_every = growth_every
        self.row_multiplier = row_multiplier

    def params(self) -> dict[str, object]:
        return {**super().params(), "growth_table": "lineorder", "growth_every_rounds": self.growth_every,
                "row_multiplier": self.row_multiplier}

    def generate(self, database: Any, seed: int) -> list[Any]:
        from repro.workloads import TableGrowthEvent

        rounds = super().generate(database, seed)
        return [
            dataclasses.replace(r, events=(TableGrowthEvent("lineorder", self.row_multiplier),))
            if r.round_number > 1 and (r.round_number - 1) % self.growth_every == 0 else r
            for r in rounds
        ]


# --------------------------------------------------------------------- #
# the fleet workload
# --------------------------------------------------------------------- #
class FleetEpisode:
    """A fresh ``TuningFleet``; one played round is one wave over all tenants.

    A wave takes seconds, and a busy neighbour can speed up or slow down
    within it, so the calibration kernel runs right before the wave and
    *during* it: every ``KERNEL_EVERY_TENANTS``-th tenant's ``on_round``
    callback (the program's own per-round hook) runs it once.  The
    callbacks' time is measured and taken off the wave's wall time.

    The wave starts with the batched recommend pass over all tenants; the
    first callback marks its end, once the first tenant's own apply,
    execute and observe time is taken off.
    """

    KERNEL_EVERY_TENANTS = 10
    #: Kernel calls right before a wave, next to its recommend pass.
    KERNELS_BEFORE_WAVE = 10

    def __init__(self, scenario: "FleetScenario") -> None:
        from repro.api import FleetConfig, SimulationOptions, TenantSpec, TuningFleet

        self.scenario = scenario
        self.fleet = TuningFleet(
            (TenantSpec(tenant, scenario.spec(), tuner="MAB") for tenant in scenario.tenant_names()),
            FleetConfig(default_options=SimulationOptions(on_round=self._between_tenants)),
        )
        self.tenant_ids = self.fleet.tenant_ids
        self._observed = 0
        self._kernels: list[int] = []
        self._hook_ns = 0
        self._recommended_ns = 0.0
        self._tracer: Tracer | None = None

    def _between_tenants(self, report: Any, results: Any) -> None:
        started = time.perf_counter_ns()
        self._observed += 1
        if self._observed == 1:
            first_tenant_s = report.wall_apply_seconds + report.wall_execute_seconds + report.wall_observe_seconds
            self._recommended_ns = started - first_tenant_s * 1e9
        if self._observed % self.KERNEL_EVERY_TENANTS == 0:
            span = self._tracer.begin("perfbench.calibration") if self._tracer is not None else -1
            self._kernels += time_kernel(1)
            if self._tracer is not None:
                self._tracer.end(span)
        self._hook_ns += time.perf_counter_ns() - started

    def play(self, workload_round: Any, tracer: Tracer | None) -> Played:
        batch = {tenant: workload_round.queries for tenant in self.tenant_ids}
        before = time_kernel(self.KERNELS_BEFORE_WAVE)
        self._observed, self._kernels, self._hook_ns, self._tracer = 0, [], 0, tracer
        span = tracer.begin(FLEET_WAVE) if tracer is not None else -1
        started = time.perf_counter_ns()
        reports = self.fleet.step(
            batch, round_number=workload_round.round_number, is_shift_round=workload_round.is_shift_round
        )
        finished = time.perf_counter_ns() - self._hook_ns
        if tracer is not None:
            tracer.end(span)
        records, failures = [], []
        for tenant in self.tenant_ids:
            database = self.fleet.session(tenant).database
            records.append(_record(database, reports[tenant]))
            failures.extend(_budget_failure(database, tenant))
        return Played(
            round_ns=finished - started,
            recommend_ns=(self._recommended_ns - started) / len(self.tenant_ids),
            records=records,
            failures=failures,
            kernels=before + self._kernels,
            recommend_kernels=before + self._kernels[:2],
        )

    def check(self, workload_round: Any) -> list[str]:
        return []

    def finish(self, rounds: list[Any], records: list[list[Record]]) -> list[str]:
        """One tenant's decisions must equal a standalone session's on the same rounds."""
        from repro.api import SimulationOptions, TuningSession, create_tuner

        database = self.scenario.spec().create()
        session = TuningSession(database, create_tuner("MAB", database), SimulationOptions())
        position = self.tenant_ids.index(self.scenario.parity_tenant)
        failures = []
        for workload_round, wave in zip(rounds, records):
            report = session.step_workload_round(workload_round)
            if _record(database, report) != wave[position]:
                failures.append(
                    f"{self.scenario.parity_tenant} round {workload_round.round_number}: "
                    "fleet tenant differs from a standalone session"
                )
        return failures

    def layer_extras(self) -> dict[str, float]:
        interner = self.fleet.interner
        return {"fleet.intern_hit_ratio": interner.hits / (interner.hits + interner.misses)}


class FleetScenario:
    """Interned MAB tenants on a few TPC-H templates, static regime."""

    round_span = FLEET_WAVE
    #: One variant: the fleet's decisions barely depend on the seed, and an
    #: episode of 200 tenants is long.
    variants = 1

    def __init__(self, name: str, why: str, seed: int, tenants: int = 200, n_templates: int = 8,
                 n_rounds: int = 6) -> None:
        self.name = name
        self.why = why
        self.seed = seed
        self.tenants = tenants
        self.n_templates = n_templates
        self.n_rounds = n_rounds
        self.parity_tenant = self.tenant_names()[0]

    def params(self) -> dict[str, object]:
        return {
            "benchmark": "tpch",
            "regime": "static",
            "tuner": "MAB",
            "database": DATABASE,
            "tenants": self.tenants,
            "templates": f"first {self.n_templates}",
            "interned": True,
            "batched_scoring": True,
            "variants": self.variants,
            "waves_per_episode": self.n_rounds,
            "clients": 1,
            "loop": "closed (one client steps all tenants, one wave at a time)",
        }

    def tenant_names(self) -> list[str]:
        return [f"t{i:04d}" for i in range(self.tenants)]

    def spec(self) -> Any:
        from repro.api import DatabaseSpec

        return DatabaseSpec("tpch", **DATABASE)

    def setup(self) -> tuple[list[list[Any]], FleetEpisode]:
        from repro.workloads import StaticWorkload, get_benchmark

        database = self.spec().create()
        templates = get_benchmark("tpch").templates[: self.n_templates]
        rounds = StaticWorkload(
            database, templates, n_rounds=self.n_rounds, seed=variant_seed(self.seed, 0)
        ).materialise()
        return [rounds], FleetEpisode(self)

    def episode(self) -> FleetEpisode:
        return FleetEpisode(self)


#: Why each workload is in the benchmark (``BENCHMARK.json`` says the same).
WHY = {
    "tpch_static": "Static TPC-H, all 22 templates: a small, stable arm pool; the planner, executor and storage"
    " do most of the work, so recommend-side changes should barely move it",
    "tpcds_adhoc": "Ad-hoc TPC-DS (random regime, 99 queries a round): the largest arm pools and most new"
    " queries, so arm generation, context building and the oracle work hardest",
    "fleet_tpch": "200 interned MAB tenants on 8 TPC-H templates: the only workload with batched scoring and"
    " database interning; every tenant repeats the same queries",
    "ssb_ingest": "SSB static stream whose lineorder grows every 4 rounds: statistics and size caches are"
    " invalidated beside the reads, and a stale cache fails the check",
}


def make_scenario(name: str, seed: int) -> Any:
    if name == "tpch_static":
        return StaticScenario(name, WHY[name], "tpch", seed)
    if name == "tpcds_adhoc":
        return AdhocScenario(name, WHY[name], "tpcds", seed)
    if name == "fleet_tpch":
        return FleetScenario(name, WHY[name], seed)
    if name == "ssb_ingest":
        return IngestScenario(name, WHY[name], seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
