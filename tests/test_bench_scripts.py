"""Smoke test of bench/fiber_tables.py: each measurement's child mode runs
against this checkout's library and reports a timing as one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "fiber_tables.py"


@pytest.mark.parametrize("kind", ["table_p", "table_p2", "pair_p2", "family_sums_p2"])
def test_fiber_tables_child_runs(kind):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(SCRIPT), "--child", kind, "7"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "time_s" in json.loads(done.stdout)
