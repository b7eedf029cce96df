"""Fleet scale benchmark: memory and interning at 10/100/1000 tenants.

Drives a :class:`~repro.api.TuningFleet` of identical TPC-H quick tenants
(the paper's DBaaS framing: one control plane tuning a large roster) and
records, per roster size:

* ``bytes_per_tenant`` — traced allocation of fleet construction divided by
  the roster size, which is where database interning shows up: tenants share
  one statistics snapshot instead of materialising 1000 copies;
* ``tenant_rounds`` and the interner's hit/miss counts.

Results land in ``benchmarks/results/BENCH_fleet.json``.  Fleet throughput
is measured by perfbench's ``fleet_tpch`` workload, not here.
"""

from __future__ import annotations

import json
import tracemalloc

from repro.api import DatabaseSpec, FleetConfig, TenantSpec, TuningFleet
from repro.workloads import StaticWorkload, get_benchmark

from conftest import write_result

TENANT_COUNTS = (10, 100, 1000)
ROUNDS = 3
N_TEMPLATES = 4


def fleet_spec() -> DatabaseSpec:
    return DatabaseSpec("tpch", scale_factor=1.0, sample_rows=300, seed=7)


def build_rounds():
    benchmark = get_benchmark("tpch")
    database = fleet_spec().create()
    return StaticWorkload(
        database, benchmark.templates[:N_TEMPLATES], n_rounds=ROUNDS, seed=2
    ).materialise()


def build_fleet(n_tenants: int, intern: bool = True) -> TuningFleet:
    return TuningFleet(
        (TenantSpec(f"t{i:04d}", fleet_spec(), tuner="MAB") for i in range(n_tenants)),
        FleetConfig(intern_databases=intern),
    )


def measure_roster(n_tenants: int, rounds) -> dict:
    tracemalloc.start()
    fleet = build_fleet(n_tenants)
    traced_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert fleet.interner.misses == 1  # the interning satellite's guarantee
    assert fleet.interner.hits == n_tenants - 1

    for workload_round in rounds:
        fleet.step({tid: workload_round.queries for tid in fleet.tenant_ids})

    return {
        "bytes_per_tenant": int(traced_bytes / n_tenants),
        "tenant_rounds": fleet.summary().n_rounds,
        "interner": {"misses": fleet.interner.misses, "hits": fleet.interner.hits},
    }


def test_fleet_scale(results_dir):
    rounds = build_rounds()
    payload = {
        "benchmark": "tpch",
        "tuner": "MAB",
        "rounds": ROUNDS,
        "templates": N_TEMPLATES,
        "tenants": {},
    }
    for n_tenants in TENANT_COUNTS:
        payload["tenants"][str(n_tenants)] = measure_roster(n_tenants, rounds)

    # Show the interning win: construction bytes for a 100-tenant roster
    # of fully private databases vs the shared-snapshot roster above.
    tracemalloc.start()
    private_fleet = build_fleet(100, intern=False)
    private_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del private_fleet
    interned = payload["tenants"]["100"]["bytes_per_tenant"]
    comparison = {
        "bytes_per_tenant_private": int(private_bytes / 100),
        "bytes_per_tenant_interned": interned,
        "savings_factor": round(private_bytes / 100 / max(interned, 1), 2),
    }
    payload["interning_comparison"] = comparison

    path = results_dir / "BENCH_fleet.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        f"fleet scale benchmark (tpch quick, MAB, {ROUNDS} round(s), "
        f"{N_TEMPLATES} templates)"
    ]
    for n_tenants in TENANT_COUNTS:
        entry = payload["tenants"][str(n_tenants)]
        lines.append(
            f"  {n_tenants:>5} tenants: {entry['bytes_per_tenant'] / 1024:.0f} KiB/tenant, "
            f"{entry['tenant_rounds']} tenant-rounds"
        )
    lines.append(
        f"  interning at 100 tenants: "
        f"{comparison['bytes_per_tenant_interned'] / 1024:.0f} KiB/tenant shared vs "
        f"{comparison['bytes_per_tenant_private'] / 1024:.0f} KiB/tenant private "
        f"({comparison['savings_factor']:.1f}x)"
    )
    write_result(results_dir, "BENCH_fleet", "\n".join(lines))

    assert comparison["savings_factor"] > 2.0, (
        "database interning no longer pays for itself: private construction "
        f"is only {comparison['savings_factor']:.1f}x the interned bytes/tenant"
    )
