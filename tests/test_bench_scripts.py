"""Smoke test of bench/layers.py: each measurement's child mode runs against
this checkout's library at size 7 and reports a timing as one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "layers.py"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# all but the two measurements of nine aswd processes, which take seconds
CHILD_MODES = ["import", "import_compiled", "eta_powers", "residues", "aswd_row_block",
               "traces_cold", "table_p2", "table_p", "pair_p2", "family_sums_p2",
               "newform_L48", "newform_L432", "basis"]


def layers(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", CHILD_MODES)
def test_layers_child_runs(name):
    done = layers("--child", name, "7")
    assert done.returncode == 0, done.stderr
    assert "time_s" in json.loads(done.stdout)


def test_unknown_measurement_refused():
    done = layers("--only", "nosuch")
    assert done.returncode == 2 and done.stdout == ""
    assert "unknown measurement nosuch" in done.stderr
    assert all(name in done.stderr for name in CHILD_MODES + ["aswd", "aswd_cold"])
