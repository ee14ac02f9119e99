"""Time noncong layer by layer in one or two checkouts, and fit the scaling
exponent k of t ~ N^k of each measurement.

    python bench/layers.py [--before CHECKOUT] [--after CHECKOUT] \
        [--only eta_powers,table_p2] [--out BENCH.json]

Each (checkout, measurement, N) runs in its own child interpreter that
imports noncong from CHECKOUT/src (``--after`` defaults to this checkout).
With ``--before``, the two checkouts take turns at each (measurement, N),
in alternating order, so drift of a shared host falls on both sides.
The child repeats, at least 3 times and then until 1 s or 25 runs: reset
every noncong cache and store (the lru_caches, ``series._ETA_POWERS``,
``catalog._PIECES``), the set-up (not timed), the run (timed).  It reports
the median run and its peak RSS, which includes the interpreter, numpy and,
for the measurements that start processes, the largest of them.

The measurements, with the N each is taken at (N = 1 where none applies):

* ``import``, ``import_compiled``: ``import noncong, noncong.cli`` in
  a fresh interpreter with numpy and the standard library already loaded,
  from a copy without bytecode under PYTHONDONTWRITEBYTECODE=1, as in a
  fresh checkout, so every module it loads compiles at each start; or from
  a copy of the tree with its bytecode compiled once;
* ``eta_powers`` (N = 501 .. 4001): ``eta_power_coeffs(k, e, N)`` for every
  factor (k, e) of every basis form (scales divided by their gcd), from an
  empty store;
* ``residues`` (same N): ``coefficient_residues`` of gamma_24.6.1^6, both
  basis forms through printed index N, mod p^2 for 5 <= p <= 97 (the batch
  of one ``aswd --pmax 97`` run); the set-up builds the exact eta powers,
  so this times the mod-p^2 kernel alone;
* ``aswd``, ``aswd_cold``: the nine processes ``noncong aswd <group>
  --pmax 97 --pn-bound 1000``, spawn to exit, from a copy with compiled
  bytecode; or from the copy without bytecode under
  PYTHONDONTWRITEBYTECODE=1, as ``import`` and perfbench's children start;
* ``traces_cold``: one process ``noncong --format csv traces --all
  --primes 5..23,73,101``, spawn to exit, from the copy without bytecode,
  as ``aswd_cold``;
* ``aswd_row_block`` (N = 4, 8, 24): ``aswd gamma_24.6.1^6 --pmax 97
  --pn-bound 1000`` in the child with ``catalog.ROW_BLOCK = N``, the
  measurement behind that constant;
* ``table_p2``, ``table_p`` (N = p = 101 .. 2003):
  ``fiber_trace_table("E8", p)`` over F_{p^2} or F_p, the field set-up
  (character, log and inverse tables) included;
* ``pair_p2`` (same p): the E8 and then the E6 table over one F_{p^2};
* ``family_sums_p2`` (same p): ``frobenius_trace`` of the twelve families of
  the main groups over F_{p^2}, with both tables and the field built in the
  set-up;
* ``newform_L48``, ``newform_L432`` (N = 1009 .. 4001): ``newform_an(form,
  p)`` for every prime 5 <= p <= N in ascending order, as perfbench's
  ap-scan asks for them;
* ``basis`` (N = 501 .. 2001): ``basis_q_expansions(gamma_24.6.1^6, N)``,
  both exact basis forms of one of the groups with mu = 1, whose forms
  cost most.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUP = "gamma_24.6.1^6"
ETA_BOUNDS = (501, 1001, 2001, 4001)
PRIMES = (101, 211, 1009, 2003)
NEWFORM_BOUNDS = (1009, 2003, 4001)
BASIS_BOUNDS = (501, 1001, 2001)
ROW_BLOCKS = (4, 8, 24)
ASWD = ("--pmax", "97", "--pn-bound", "1000")
PRELOAD = ("numpy, numpy.fft, argparse, dataclasses, fractions, functools, "
           "itertools, json, math, os")
CLI = "import sys; from noncong.cli import main; sys.exit(main(sys.argv[1:]))"

# name -> (the N it is taken at, set-up(name, N) returning the timed run)
MEASUREMENTS = {}


def measurement(sizes, *names):
    def register(setup):
        MEASUREMENTS.update({name: (sizes, setup) for name in names})
        return setup
    return register


@functools.cache
def tree_copy(compiled: bool) -> tempfile.TemporaryDirectory:
    """The noncong package this child imports, copied without bytecode to a
    directory that lives as long as the child; compiled once if asked."""
    tmp = tempfile.TemporaryDirectory()
    package = importlib.util.find_spec("noncong").submodule_search_locations[0]
    shutil.copytree(package, Path(tmp.name, "noncong"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if compiled:
        compileall.compile_dir(tmp.name, quiet=1)
    return tmp


@measurement((1,), "import", "import_compiled")
def _import(name, n):
    env = {**os.environ, "PYTHONPATH": tree_copy(name == "import_compiled").name,
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = (f"import {PRELOAD}, time\nt0 = time.perf_counter()\n"
            "import noncong, noncong.cli\nprint(time.perf_counter() - t0)")

    def run():          # the import times itself, without the interpreter start
        return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
    return run


@measurement(ETA_BOUNDS, "eta_powers")
def _eta_powers(name, n):
    from noncong import catalog, series
    factors = set()
    for group in catalog.GROUPS.values():
        for eq in (group.h1, group.h2):
            g = math.gcd(*(k for k, _ in eq.factors))
            factors |= {(k // g, e) for k, e in eq.factors}

    def run():
        for k, e in sorted(factors):
            series.eta_power_coeffs(k, e, n)
    return run


@measurement(ETA_BOUNDS, "residues")
def _residues(name, n):
    from noncong import catalog
    group = catalog.get_group(GROUP)
    moduli = tuple(p * p for p in catalog.primes_upto(97) if p >= 5)
    catalog.coefficient_residues(group, n, moduli[:1])  # exact eta powers, first-call imports
    return lambda: catalog.coefficient_residues(group, n, moduli)


@measurement((1,), "aswd", "aswd_cold", "traces_cold")
def _processes(name, n):
    from noncong import GROUPS
    env = {**os.environ, "PYTHONPATH": tree_copy(name == "aswd").name,
           "PYTHONDONTWRITEBYTECODE": "1"}
    commands = [["--format", "csv", "traces", "--all", "--primes", "5..23,73,101"]] \
        if name == "traces_cold" else [["aswd", group, *ASWD] for group in GROUPS]

    def run():
        for argv in commands:
            subprocess.run([sys.executable, "-c", CLI, *argv],
                           env=env, check=True, stdout=subprocess.DEVNULL)
    return run


@measurement(ROW_BLOCKS, "aswd_row_block")
def _aswd_row_block(name, n):
    from noncong import catalog, cli
    catalog.ROW_BLOCK = n

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["aswd", GROUP, *ASWD]):
                raise RuntimeError(f"aswd {GROUP} failed")
    return run


@measurement(PRIMES, "table_p2", "table_p", "pair_p2", "family_sums_p2")
def _fiber_tables(name, p):
    import noncong
    from noncong import traces
    traces.fiber_trace_table("E8", 5, True)            # first-call imports
    if name == "family_sums_p2":
        families = [fam for group in noncong.MAIN_GROUPS
                    for fam in traces.surface_families(noncong.GROUPS[group])]
        for level in ("E8", "E6"):
            traces.fiber_trace_table(level, p, True)
        traces.field_for(p, True).inv_table()

        def run():
            for fam in families:
                traces.frobenius_trace(fam, p, True)
        return run
    levels = ("E8", "E6") if name == "pair_p2" else ("E8",)

    def run():
        for level in levels:
            traces.fiber_trace_table(level, p, name != "table_p")
    return run


@measurement(NEWFORM_BOUNDS, "newform_L48", "newform_L432")
def _newform(name, n):
    from noncong import catalog
    form = name.removeprefix("newform_")
    primes = [p for p in catalog.primes_upto(n) if p >= 5]

    def run():
        for p in primes:
            catalog.newform_an(form, p)
    return run


@measurement(BASIS_BOUNDS, "basis")
def _basis(name, n):
    from noncong import catalog
    group = catalog.get_group(GROUP)
    return lambda: catalog.basis_q_expansions(group, n)


def reset():
    """Clear every cache and store of the noncong modules loaded here."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "noncong"]
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        for store in ("_ETA_POWERS", "_PIECES"):
            getattr(module, store, {}).clear()


def child(name: str, n: int) -> dict:
    """One measurement at one N in this (fresh) interpreter."""
    setup = MEASUREMENTS[name][1]
    times, spent = [], 0.0
    while len(times) < 3 or (spent < 1.0 and len(times) < 25):
        reset()
        run = setup(name, n)
        t0 = time.perf_counter()
        took = run()
        wall = time.perf_counter() - t0
        times.append(took if isinstance(took, float) else wall)   # self-timed run
        spent += wall
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"time_s": statistics.median(times), "peak_rss_mib": peak / 1024}


def fit_exponent(times: dict[int, float]) -> float | None:
    """Least-squares slope of log t against log N; None for a single N."""
    if len(times) < 2:
        return None
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs), 3)


def run_child(checkout: str, name: str, n: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(checkout, "src"))}
    return json.loads(subprocess.run(
        [sys.executable, __file__, "--child", name, str(n)], env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout)


def measure(checkouts: dict[str, str], names: list[str]) -> dict:
    """side -> measurement -> its record, for the sides of ``checkouts``
    (side -> checkout).  At each (measurement, N) every side runs one
    child, the sides in turn first."""
    out = {side: {} for side in checkouts}
    turn = 0
    for name in names:
        got = {side: {} for side in checkouts}
        for n in MEASUREMENTS[name][0]:
            order = list(checkouts)[::1 if turn % 2 == 0 else -1]
            turn += 1
            for side in order:
                got[side][n] = run_child(checkouts[side], name, n)
        for side, runs in got.items():
            out[side][name] = {
                "time_s": {str(n): round(r["time_s"], 4) for n, r in runs.items()},
                "exponent": fit_exponent({n: r["time_s"] for n, r in runs.items()}),
                "peak_rss_mib": {str(n): round(r["peak_rss_mib"], 1)
                                 for n, r in runs.items()}}
            print(f"{checkouts[side]} {name}: {json.dumps(out[side][name])}",
                  file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="checkout to compare against")
    ap.add_argument("--after", default=str(ROOT), help="checkout to time (default: this one)")
    ap.add_argument("--only", default=",".join(MEASUREMENTS),
                    help="comma-separated measurements (default: all)")
    ap.add_argument("--out", help="also write the record to this file")
    ap.add_argument("--child", nargs=2, metavar=("NAME", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = [args.child[0]] if args.child else args.only.split(",")
    unknown = [name for name in names if name not in MEASUREMENTS]
    if unknown:
        ap.error(f"unknown measurement {', '.join(unknown)}; "
                 f"known: {', '.join(MEASUREMENTS)}")
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]))))
        return 0
    # a BLAS thread count set here reaches the processes of both checkouts,
    # so neither starts a thread pool and the record hides that difference
    record = {"host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "threads_env": {k: os.environ.get(k)
                              for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
              "python": platform.python_version()}
    sides = {"before": args.before, "after": args.after} if args.before \
        else {"after": args.after}
    record.update(measure(sides, names))
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
