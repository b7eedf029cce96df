"""Stream goldens: every workload sequencer's rounds, pinned by digest.

Each case materialises one sequencer (the three classic regimes and the five
stressors) on a small TPC-H or SSB database at a fixed workload seed, and
digests :func:`~repro.workloads.sequence_fingerprint` of the whole stream:
every query with its exact literals, the PDTool training set, the shift flag
and the events of every round.  The digests below were recorded once and must
never be edited to make a change pass: a refactor of the sequencers that
keeps their random draws in the same order keeps these digests, bit for bit.

Regenerate the literal (only for an intended change of the streams) with::

    PYTHONPATH=src python tests/test_workload_streams.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.workloads import (
    ChurnWorkload,
    FlashTrafficWorkload,
    RandomWorkload,
    SchemaGrowthWorkload,
    SeasonalWorkload,
    ShiftingWorkload,
    StaticWorkload,
    TierMigrationWorkload,
    get_benchmark,
    sequence_fingerprint,
)

#: name -> (sequencer class, constructor arguments besides database, templates and seed)
SEQUENCERS = {
    "static": (StaticWorkload, {"n_rounds": 6}),
    "shifting": (ShiftingWorkload, {"n_groups": 3, "rounds_per_group": 3}),
    "random": (RandomWorkload, {"n_rounds": 10}),
    "flash_traffic": (FlashTrafficWorkload, {"n_rounds": 10}),
    "seasonal": (SeasonalWorkload, {"n_rounds": 10}),
    "churn": (ChurnWorkload, {"n_rounds": 10}),
    "schema_growth": (SchemaGrowthWorkload, {"n_rounds": 10}),
    "tier_migration": (TierMigrationWorkload, {"n_rounds": 9}),
}

BENCHMARKS = ("tpch", "ssb")
WORKLOAD_SEEDS = (13, 14)

EXPECTED_DIGESTS = {
    "tpch/static/13": "f29fe1f3382e8505",
    "tpch/static/14": "a7ecf06fea2cb3ff",
    "tpch/shifting/13": "1f2189489b670c8c",
    "tpch/shifting/14": "909444ded8f4a078",
    "tpch/random/13": "ad0db0181968a6b8",
    "tpch/random/14": "c27e1612a908a8e5",
    "tpch/flash_traffic/13": "2c419d8608e1b7ad",
    "tpch/flash_traffic/14": "424eaa340fb889d7",
    "tpch/seasonal/13": "0210eac8d504f6fa",
    "tpch/seasonal/14": "8c724f151447ac02",
    "tpch/churn/13": "8849b6cae2b7c093",
    "tpch/churn/14": "103cabf884ff5549",
    "tpch/schema_growth/13": "cedfeabd48254134",
    "tpch/schema_growth/14": "867f6f876b5d9713",
    "tpch/tier_migration/13": "47af16ce3da0f6f0",
    "tpch/tier_migration/14": "c68143157bb15d7d",
    "ssb/static/13": "60b50474a53e0a6e",
    "ssb/static/14": "a38a4d65f97b5cdc",
    "ssb/shifting/13": "3cc1c0da1a8084c5",
    "ssb/shifting/14": "f258e32816d10d27",
    "ssb/random/13": "fd8d497f326f8e74",
    "ssb/random/14": "37378328c3975dc7",
    "ssb/flash_traffic/13": "47d4640fa4108369",
    "ssb/flash_traffic/14": "985d0e6de4609f23",
    "ssb/seasonal/13": "f16378d5217f16d2",
    "ssb/seasonal/14": "d697871942b1196a",
    "ssb/churn/13": "f9eba26bac40e86c",
    "ssb/churn/14": "6acc36eca1c21f8f",
    "ssb/schema_growth/13": "581ce74fd14a027c",
    "ssb/schema_growth/14": "1d086d0074e3293b",
    "ssb/tier_migration/13": "ef9db0e3e15a29f4",
    "ssb/tier_migration/14": "e98e3b14c8e6a90a",
}


@lru_cache(maxsize=None)
def _database(benchmark_name: str):
    return get_benchmark(benchmark_name).create_database(
        scale_factor=0.1, sample_rows=300, seed=4
    )


def _sequence(benchmark_name: str, name: str, seed: int):
    workload_type, arguments = SEQUENCERS[name]
    templates = get_benchmark(benchmark_name).templates
    return workload_type(_database(benchmark_name), templates, seed=seed, **arguments)


def _canonical(value: object) -> object:
    """A plain-Python spelling of a fingerprint, independent of numpy's scalar reprs."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    return value


def _digest(rounds) -> str:
    text = repr(_canonical(sequence_fingerprint(rounds)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _current_digests() -> dict[str, str]:
    return {
        f"{benchmark_name}/{name}/{seed}": _digest(
            _sequence(benchmark_name, name, seed).materialise()
        )
        for benchmark_name in BENCHMARKS
        for name in SEQUENCERS
        for seed in WORKLOAD_SEEDS
    }


@pytest.mark.parametrize("benchmark_name", BENCHMARKS)
@pytest.mark.parametrize("name", sorted(SEQUENCERS))
@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_stream_matches_golden(benchmark_name, name, seed):
    rounds = _sequence(benchmark_name, name, seed).materialise()
    assert _digest(rounds) == EXPECTED_DIGESTS[f"{benchmark_name}/{name}/{seed}"]


@pytest.mark.parametrize("name", ("static", "shifting", "random"))
def test_iterating_twice_replays_the_stream(name):
    # The stressors' re-iteration is pinned in tests/test_workloads_stress.py.
    sequence = _sequence("ssb", name, 13)
    first = sequence.materialise()
    assert sequence_fingerprint(list(sequence.rounds())) == sequence_fingerprint(first)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("EXPECTED_DIGESTS = {")
    for key, digest in _current_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
