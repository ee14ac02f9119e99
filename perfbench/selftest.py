"""Self-tests of the benchmark's tracing, on small inputs (about 10 s).

    python3 -m pytest perfbench/selftest.py

The file is named so that the repository's own test run does not collect it.
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL_COMMANDS = [
    ["cli", "--format", "csv", "traces", "--all", "--primes", "5..7"],
    ["cli", "aswd", "gamma_24.6.1^6", "--pmax", "13"],
    ["apscan", "5,7,11"],
]


@pytest.mark.parametrize("args", SMALL_COMMANDS, ids=lambda a: a[0] + ":" + a[-1])
def test_traced_stdout_is_byte_identical(args):
    deadline = time.monotonic() + 120
    plain = run.run_child(args, False, "plain", deadline)
    traced = run.run_child(args, True, "traced", deadline)
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"] and plain["stdout"] == traced["stdout"]
    assert traced["record"]["trace"]["spans"]
    assert plain["record"]["trace"] is None


def _namespaces():
    import noncong
    from noncong import series, traces
    mods = [m for n, m in sys.modules.items() if n == "noncong" or n.startswith("noncong.")]
    owners = mods + [series.PuiseuxSeries, series.EtaQuotient, traces.PrimeField]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_are_installed_everywhere_and_restored():
    import noncong
    import noncong.cli  # noqa: F401
    from noncong import catalog, congruence, traces
    before = _namespaces()
    original = catalog.coefficient_sequence
    t = tracer.Tracer("selftest")
    t.install(tracer.TARGETS + (("bench.gone", "noncong.series", "no_such_function", None),))
    try:
        assert t.absent == ["bench.gone"]
        for namespace in (catalog, congruence, noncong):
            assert namespace.coefficient_sequence is not original
            assert namespace.coefficient_sequence.__wrapped__ is original
        fam = noncong.surface_families(noncong.GROUPS["gamma_24.6.1^6"])[0]
        traces.frobenius_trace(fam, 7)
    finally:
        t.restore()
    after = _namespaces()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = [s[0] for s in t.spans]
    assert names[0] == "traces.frobenius_trace" and "traces.fiber_trace_table" in names


class SmallWorkload:
    def commands(self, rng):
        return SMALL_COMMANDS[1:]

    def check(self, outputs):
        return 0, 0


def test_layer_self_times_sum_to_at_most_wall():
    deadline = time.monotonic() + 120
    traced = run.run_pass(SmallWorkload(), None, True, "selftest", deadline)
    assert traced["failed"] == 0
    by_layer = tracer.layer_self_times(traced["traces"])
    assert {"cli", "catalog", "series", "congruence", "traces", "bench"} <= set(by_layer)
    assert min(by_layer.values()) >= 0
    assert 0 < sum(by_layer.values()) <= traced["wall_s"]
    metrics, missing = tracer.layer_metrics(traced["traces"])
    assert metrics["cli.main_self_s"] + metrics["traces.frobenius_self_s"] <= traced["wall_s"]
    # no F_{p^2} table, too few F_p sizes for a fit, no `traces` CLI command
    assert missing == ["traces.fiber_table_p2_exp", "traces.fiber_table_p2_s",
                       "traces.fiber_table_p_exp", "traces.trace_rows_s"]
