"""Tests for the base-vs-head perfbench gate (``tools/perf_gate.py``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from tools.perf_gate import main  # noqa: E402

BASE_METRICS = {
    "tpch_static.round_p50_ms": 15.0,
    "tpch_static.rounds_per_s": 65.0,
    "tpch_static.exec_model_s": 2341.4,
    "fleet_tpch.recommend_p50_ms": None,
}


def result_line(metrics=None, correct=True, attempted=100, failed=0) -> str:
    values = BASE_METRICS if metrics is None else metrics
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": "x"} for key, value in values.items()},
    })


def gate(tmp_path, head_line: str, base_line: str | None = None) -> int:
    base = tmp_path / "base.out"
    head = tmp_path / "head.out"
    base.write_text("tpch_static  checks  100 of 100 rounds passed\n" + (base_line or result_line()) + "\n")
    head.write_text(head_line + "\n")
    return main([str(base), str(head)])


def scaled(key: str, factor: float) -> dict:
    return {**BASE_METRICS, key: BASE_METRICS[key] * factor}


def test_within_bound_passes(tmp_path, capsys):
    assert gate(tmp_path, result_line(scaled("tpch_static.round_p50_ms", 1.2))) == 0
    out, err = capsys.readouterr()
    assert "3 metrics compared, 0 failure(s)" in out
    assert "tpch_static.round_p50_ms: 15 -> 18 ms, head/base 1.200 (lower is better, bound 25%)" in out
    assert "tpch_static.rounds_per_s: 65 -> 65 1/s, head/base 1.000 (higher is better, bound 25%)" in out
    assert "tpch_static.exec_model_s: 2341.4 -> 2341.4 s, head/base 1.000 (lower is better, bound 10%)" in out
    # A metric without a value on both sides is not compared.
    assert "fleet_tpch.recommend_p50_ms" not in out
    assert err == ""


def test_lower_is_better_metric_beyond_bound_fails(tmp_path):
    assert gate(tmp_path, result_line(scaled("tpch_static.round_p50_ms", 1.3))) == 1


def test_higher_is_better_metric_beyond_bound_fails(tmp_path):
    assert gate(tmp_path, result_line(scaled("tpch_static.rounds_per_s", 0.7))) == 1
    # Higher throughput is an improvement, not a regression.
    assert gate(tmp_path, result_line(scaled("tpch_static.rounds_per_s", 2.0))) == 0


def test_incorrect_head_fails(tmp_path):
    assert gate(tmp_path, result_line(correct=False)) == 1


def test_larger_failed_share_fails(tmp_path):
    assert gate(tmp_path, result_line(failed=1)) == 1


@pytest.mark.parametrize("head_line", ["", "not json", json.dumps({"correct": True})])
def test_unreadable_head_is_an_input_error(tmp_path, head_line):
    assert gate(tmp_path, head_line) == 2


def test_missing_file_is_an_input_error(tmp_path):
    assert main([str(tmp_path / "absent.out"), str(tmp_path / "absent.out")]) == 2


def test_no_shared_metric_is_an_input_error(tmp_path):
    head = result_line({"ssb_ingest.round_p50_ms": 13.0, "tpch_static.core.arms.generate_ms": 6.0})
    assert gate(tmp_path, head) == 2
