"""Time what every cold noncong process pays, in one or two source trees,
and fit the scaling exponent k of t ~ N^k of the eta-power build.

    python bench/cold_start.py [--before OLD/src] [--runs 7] \
        [--eta-bounds 501,1001,2001,4001] [--out BENCH.json]

Each tree (this checkout's ``src/`` and, with ``--before``, OLD/src) is
copied to a temporary directory and its bytecode compiled once, so every
child interpreter below runs the modules without compiling them:

* ``import``: with numpy, numpy.fft and the standard-library modules
  noncong uses already loaded, ``import noncong, noncong.cli`` under
  ``-X importtime``; the time of each noncong module on its own (its
  imports excluded) and the total.  ``import_compiled`` is the same from a
  copy without bytecode that is never written, as in a fresh checkout run
  with PYTHONDONTWRITEBYTECODE=1: every module is compiled at each start;
* ``residues``: for each catalog group, ``coefficient_residues`` of both
  basis forms through printed index 1000, mod p^2 for the primes
  5 <= p <= 97 and mod 65521 (the batch of one ``aswd --pmax 97
  --pn-bound 1000`` run), from cold caches, so the exact eta powers count;
* ``aswd``: the nine processes ``noncong aswd <group> --pmax 97
  --pn-bound 1000``, one per group, each from spawn to exit;
* ``eta_powers``: for N in ``--eta-bounds``, ``eta_power_coeffs(k, e, N)``
  for every factor (k, e) of the residue batch of every basis form (the
  scales divided by their gcd), from an empty store.

A timing is the median over ``--runs`` children (three for ``eta_powers``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PRELOAD = ("numpy, numpy.fft, argparse, dataclasses, fractions, functools, "
           "itertools, json, math, os")
ASWD = ("--pmax", "97", "--pn-bound", "1000")


def child(mode: str, arg: str) -> dict:
    """One cold measurement in this (fresh) interpreter, whose sys.path
    starts with the tree under test."""
    from noncong import catalog, series
    if mode == "residues":
        group = catalog.get_group(arg)
        moduli = tuple(p * p for p in catalog.primes_upto(97) if p >= 5) + (65521,)
        t0 = time.perf_counter()
        for which in "ab":
            catalog.coefficient_residues(group, which, 1000, moduli)
    else:
        factors = set()
        for group in catalog.GROUPS.values():
            for eq in (group.h1, group.h2):
                g = math.gcd(*(k for k, _ in eq.factors))
                factors |= {(k // g, e) for k, e in eq.factors}
        t0 = time.perf_counter()
        for k, e in sorted(factors):
            series.eta_power_coeffs(k, e, int(arg))
    return {"time_s": time.perf_counter() - t0}


def run_child(src: Path, argv: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          check=True, env={**os.environ, **(env or {}),
                                           "PYTHONPATH": str(src)})


def import_times(src: Path, runs: int, env=None) -> dict:
    """Median self time of each noncong module, and their sum, in ms."""
    per_run = []
    for _ in range(runs):
        err = run_child(src, ["-X", "importtime", "-c",
                              f"import {PRELOAD}\nimport noncong, noncong.cli"], env).stderr
        own = {}
        for line in err.splitlines():
            _, self_us, _, name = line.replace("|", ":").split(":")
            if name.strip().startswith("noncong"):
                own[name.strip()] = int(self_us) / 1000
        per_run.append(own)
    out = {name: round(statistics.median(r[name] for r in per_run), 2)
           for name in per_run[0]}
    out["total"] = round(statistics.median(sum(r.values()) for r in per_run), 2)
    return out


def timed_children(src: Path, argv: list[str], runs: int) -> float:
    """Median wall time, spawn to exit, of `runs` children."""
    walls = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run_child(src, argv)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def median_child(src: Path, mode: str, arg, runs: int) -> float:
    return statistics.median(
        json.loads(run_child(src, [__file__, "--child", mode, str(arg)]).stdout)["time_s"]
        for _ in range(runs))


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(tree: str, runs: int, eta_bounds: list[int]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cached, compiled = Path(tmp, "cached"), Path(tmp, "compiled")
        for copy in (cached, compiled):
            shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__"))
        run_child(cached, ["-c", "import noncong, noncong.cli"],
                  env={"PYTHONDONTWRITEBYTECODE": ""})
        groups = json.loads(run_child(cached, [
            "-c", "import json, noncong; print(json.dumps(list(noncong.GROUPS)))"]).stdout)
        record = {"import_ms": import_times(cached, runs)}
        record["import_compiled_ms"] = import_times(compiled, runs,
                                                    {"PYTHONDONTWRITEBYTECODE": "1"})
        print(f"{tree} import: {record['import_ms']['total']} ms, compiled "
              f"{record['import_compiled_ms']['total']} ms", file=sys.stderr)
        record["residues_s"] = {g: round(median_child(cached, "residues", g, runs), 4)
                                for g in groups}
        record["residues_s"]["total"] = round(sum(record["residues_s"].values()), 4)
        aswd = [g for g in groups if not g.endswith("B")]
        record["aswd_s"] = {g: round(timed_children(cached, [
            "-c", "import sys; from noncong.cli import main; sys.exit(main(sys.argv[1:]))",
            "aswd", g, *ASWD], runs), 4) for g in aswd}
        record["aswd_s"]["total"] = round(sum(record["aswd_s"].values()), 4)
        print(f"{tree} residues: {record['residues_s']['total']} s, nine aswd: "
              f"{record['aswd_s']['total']} s", file=sys.stderr)
        eta = {n: median_child(cached, "eta", n, 3) for n in eta_bounds}
        record["eta_powers"] = {"time_s": {str(n): round(t, 4) for n, t in eta.items()},
                                "exponent": round(fit_exponent(eta), 3)}
        print(f"{tree} eta powers: {record['eta_powers']}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", default=None, help="src/ of the tree to compare against")
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--eta-bounds", default="501,1001,2001,4001")
    ap.add_argument("--out", default=None)
    ap.add_argument("--child", nargs=2, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child)))
        return 0
    eta_bounds = [int(n) for n in args.eta_bounds.split(",")]
    record = {"metric": "median over children started cold: noncong's own import (ms) "
                        "with numpy and the stdlib loaded, per module; the residue batch "
                        "of each group (s); nine aswd processes (s); the eta-power build "
                        "to N coefficients (s)",
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(),
              "runs": args.runs}
    if args.before:
        record["before"] = measure(args.before, args.runs, eta_bounds)
    record["after"] = measure(str(SRC), args.runs, eta_bounds)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
