"""Smoke test of bench/layers.py: each measurement's child mode runs against
this checkout's library at size 7 and reports a timing as one JSON line, and
two checkouts take turns at each (measurement, N)."""

import importlib.util
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
               "aswd_pmax", "traces_cold", "table_p2", "table_p", "pair_p2", "family_sums_p2",
               "scan_p", "newform_L48", "newform_L432", "basis"]


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


def load_layers():
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reset_clears_the_class_sums():
    """``reset`` clears every lru_cache of the loaded noncong modules, the
    class sums among them, so family_sums_p2 and scan_p time cold sums."""
    from noncong import GROUPS, traces
    fam = traces.surface_families(GROUPS["gamma_24.6.1^6"])[0]
    traces._class_sum.cache_clear()
    traces.frobenius_trace(fam, 7)
    assert traces._class_sum.cache_info().currsize == 1
    load_layers().reset()
    assert traces._class_sum.cache_info().currsize == 0
    assert traces.fiber_trace_table.cache_info().currsize == 0


def test_checkouts_take_turns(monkeypatch):
    module = load_layers()
    calls = []

    def fake_child(checkout, name, n):
        calls.append((checkout, name, n))
        return {"time_s": 0.5, "peak_rss_mib": 30.0}

    monkeypatch.setattr(module, "run_child", fake_child)
    record = module.measure({"before": "B", "after": "A"}, ["basis", "import"])
    assert calls == [("B", "basis", 501), ("A", "basis", 501), ("A", "basis", 1001),
                     ("B", "basis", 1001), ("B", "basis", 2001), ("A", "basis", 2001),
                     ("A", "import", 1), ("B", "import", 1)]
    assert list(record) == ["before", "after"]
    assert record["after"]["basis"] == {
        "time_s": {"501": 0.5, "1001": 0.5, "2001": 0.5}, "exponent": 0.0,
        "peak_rss_mib": {"501": 30.0, "1001": 30.0, "2001": 30.0}}


def test_row_block_child_refuses_a_size_that_did_not_apply(monkeypatch):
    """``aswd_row_block`` counts the Newton cube roots of its run, so a block
    size set on a name that ``detect_bases`` does not read is refused."""
    from noncong import congruence, residues
    # the set-up rebinds both names; monkeypatch puts them back afterwards
    monkeypatch.setattr(congruence, "ROW_BLOCK", congruence.ROW_BLOCK)
    monkeypatch.setattr(residues, "cube_roots_mod", residues.cube_roots_mod)
    run = load_layers().MEASUREMENTS["aswd_row_block"][1]("aswd_row_block", 4)
    congruence.ROW_BLOCK = 8
    with pytest.raises(RuntimeError, match="took 3 Newton cube roots, not 6"):
        run()
