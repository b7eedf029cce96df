"""The workload stress suite: every registered tuner vs every adversarial stressor.

The paper's pitch is *safe* online tuning under ad-hoc, shifting workloads.
This driver makes that claim measurable: each registered stressor
(:func:`repro.workloads.available_stressors` — flash traffic, seasonal drift,
template churn, schema growth, tier migration) is materialised once and every
registered tuner races over the identical round stream.  Per (stressor,
tuner) pair the :class:`~repro.api.SafetyReport` layer pairs the run against
the NoIndex baseline and reports the safety metrics: per-round regret,
worst-round regression ratio, regression-round count (<1.0x), win count
(≥1.2x), and rollback count.

Results go to ``benchmarks/results/BENCH_stress.json`` (plus a formatted
``BENCH_stress.txt``) ranking the tuners by safety per stressor.

The headline assertion is the ISSUE 8 acceptance bar: at least one stressor
demonstrably separates the MAB tuner from both DDQN and PDTool on the safety
ranking.
"""

from __future__ import annotations

import json

from repro.api import (
    DatabaseSpec,
    RunReport,
    SimulationOptions,
    TuningSession,
    create_tuner,
    rank_by_safety,
    registered_tuner_names,
    safety_reports,
)
from repro.workloads import available_stressors, get_benchmark, get_stressor

from conftest import write_result

ROUNDS = 16
SPEC = DatabaseSpec("ssb", scale_factor=1.0, sample_rows=400, seed=7)
BASELINE = "NoIndex"


def materialise_stressor(name: str):
    """One shared round stream per stressor: every tuner sees identical queries."""
    benchmark = get_benchmark("ssb")
    database = SPEC.create()
    sequence = get_stressor(name)(
        database, benchmark.templates, n_rounds=ROUNDS, seed=3
    )
    return sequence.materialise()


def run_tuner(tuner_name: str, stressor_name: str, workload_rounds) -> RunReport:
    """One tuner's run over one stressor; returns its ``RunReport``."""
    database = SPEC.create()
    session = TuningSession(
        database,
        create_tuner(tuner_name, database),
        SimulationOptions(benchmark_name="ssb", workload_type=stressor_name),
    )
    for workload_round in workload_rounds:
        session.step_workload_round(workload_round)
    return session.report


def test_stress_suite(results_dir):
    stressors = available_stressors()
    tuners = registered_tuner_names()
    assert len(stressors) >= 5, f"expected >=5 registered stressors, got {stressors}"
    assert len(tuners) >= 5, f"expected >=5 registered tuners, got {tuners}"

    results: dict[str, dict] = {}
    for stressor_name in stressors:
        workload_rounds = materialise_stressor(stressor_name)
        reports = {
            tuner_name: run_tuner(tuner_name, stressor_name, workload_rounds)
            for tuner_name in tuners
        }
        safety = safety_reports(reports, baseline_name=BASELINE)
        ranking = rank_by_safety(safety)
        rows = {}
        for tuner_name, safety_report in safety.items():
            summary = safety_report.summary()
            summary["per_round_regret"] = [
                round(regret, 4) for regret in safety_report.per_round_regret
            ]
            summary["total_seconds"] = round(reports[tuner_name].total_seconds, 4)
            rows[tuner_name] = summary
        results[stressor_name] = {
            "rounds": len(workload_rounds),
            "events": sum(len(r.events) for r in workload_rounds),
            "baseline_total_seconds": round(reports[BASELINE].total_seconds, 4),
            "tuners": rows,
            "safety_ranking": ranking,
        }

    payload = {
        "benchmark": "ssb",
        "rounds": ROUNDS,
        "baseline": BASELINE,
        "stressors": results,
    }
    (results_dir / "BENCH_stress.json").write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"Stress suite on SSB: {len(results)} stressors x {len(tuners)} tuners "
        f"(rounds={ROUNDS}, baseline={BASELINE})"
    ]
    for stressor_name, entry in results.items():
        lines.append(f"  {stressor_name} (safety ranking: {' > '.join(entry['safety_ranking'])})")
        for tuner_name in entry["safety_ranking"]:
            row = entry["tuners"][tuner_name]
            lines.append(
                f"    {tuner_name:>8}: regret {row['total_regret_seconds']:>9.1f} s, "
                f"worst round {row['worst_round_regression_ratio']:>6.3f}x, "
                f"regressions {row['regression_rounds']:>2}, "
                f"wins {row['win_rounds']:>2}, rollbacks {row['rollback_count']:>2}"
            )
    write_result(results_dir, "BENCH_stress", "\n".join(lines))

    # Coverage bar: every stressor raced every registered tuner.
    for stressor_name, entry in results.items():
        assert set(entry["tuners"]) == set(tuners) - {BASELINE}
        for row in entry["tuners"].values():
            assert len(row["per_round_regret"]) == entry["rounds"]
    # The environment-event stressors actually fired events.
    assert results["schema_growth"]["events"] > 0
    assert results["tier_migration"]["events"] > 0
    # The acceptance bar: at least one stressor separates MAB from both
    # DDQN and PDTool on the safety ranking (MAB strictly safer).
    separating = [
        name
        for name, entry in results.items()
        if entry["safety_ranking"].index("MAB")
        < min(
            entry["safety_ranking"].index("DDQN"),
            entry["safety_ranking"].index("PDTool"),
        )
    ]
    assert separating, (
        "no stressor ranked MAB above both DDQN and PDTool: "
        + json.dumps({n: e["safety_ranking"] for n, e in results.items()})
    )
