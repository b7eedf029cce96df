"""Every script in ``examples/`` runs to completion in smoke mode.

The examples drive the public :mod:`repro.api` surface end to end.  Each one
runs here in its own interpreter with ``REPRO_SMOKE=1``, which shrinks its
rounds and sampling, so a broken example fails the test suite.  The scripts
run from a temporary directory, so anything they wrote would land there and
not in the working tree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_in_smoke_mode(example, tmp_path):
    source_root = str(REPO_ROOT / "src")
    python_path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "REPRO_SMOKE": "1",
        "PYTHONPATH": source_root + (os.pathsep + python_path if python_path else ""),
    }
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.strip(), "the example printed nothing"
