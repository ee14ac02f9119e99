"""Time the batched mod-p^2 residue kernel for one group against the
per-modulus products it replaced, and fit the scaling exponent k of
t ~ N^k.

    python bench/basis_residues.py [--group gamma_24.6.1^6] \
        [--bounds 501,1001,2001,4001] [--before OLD/src] [--blocks 4,8,24] \
        [--out BENCH.json]

Every measurement runs in a fresh child interpreter, which also reports its
peak RSS.  The moduli are those of one ``noncong aswd --pmax 97`` run: p^2
for the 23 primes 5 <= p <= 97, plus 65521 (``congruence.AUX_PRIME``).  For each
printed-index bound N the child first builds the exact integer eta-power
coefficients (not timed), then times, from cold residue caches:

* after: ``coefficient_residues(group, which, N, moduli)`` for both forms,
  one batched Newton cube root per form;
* before (with ``--before``): the same moduli one at a time,
  ``coefficient_residues(group, which, N, m)``, imported from the ``src/``
  of a checkout that still has the per-modulus int64 convolutions (any
  commit up to fbe2a63).

A timing is the median of three runs.  ``--blocks`` also runs
``noncong aswd <group> --pmax 97 --pn-bound 1000`` from cold caches in three
children per listed ``catalog.ROW_BLOCK`` value (and, with ``--before``, in
the old checkout) and records the median time and peak RSS, the measurement
behind that constant.  Those peaks include this script's own imports, so they compare
with each other only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed(fn) -> float:
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def child(mode: str, src: str, group_name: str, arg: int) -> dict:
    """One measurement in this (fresh) interpreter; see the module doc."""
    sys.path.insert(0, src)
    from noncong import catalog, cli
    group = catalog.get_group(group_name)
    moduli = tuple(p * p for p in catalog.primes_upto(97) if p >= 5) + (65521,)
    if mode == "aswd":
        catalog.ROW_BLOCK = arg
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["aswd", group.name, "--pmax", "97", "--pn-bound", "1000"])
        assert rc == 0
        seconds = time.perf_counter() - t0
    else:
        warm = moduli[:1] if mode == "after" else moduli[0]
        for which in "ab":          # exact eta powers and first-call imports
            catalog.coefficient_residues(group, which, arg, warm)
        if mode == "after":
            def run():
                catalog.coefficient_residues.cache_clear()
                for which in "ab":
                    catalog.coefficient_residues(group, which, arg, moduli)
        else:
            def run():
                for which in "ab":
                    for m in moduli:
                        catalog.coefficient_residues(group, which, arg, m)
        seconds = timed(run)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"time_s": round(seconds, 4), "peak_rss_mib": round(peak, 2)}


def measure(mode: str, src: str, group: str, arg: int) -> dict:
    argv = [sys.executable, __file__, "--child", mode, src, group, str(arg)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def median_of_three(mode: str, src: str, group: str, arg: int) -> dict:
    runs = [measure(mode, src, group, arg) for _ in range(3)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def series_record(mode: str, src: str, group: str, bounds: list[int]) -> dict:
    runs = {n: measure(mode, src, group, n) for n in bounds}
    return {"time_s": {str(n): r["time_s"] for n, r in runs.items()},
            "exponent": round(fit_exponent({n: r["time_s"] for n, r in runs.items()}), 3),
            "peak_rss_mib": {str(n): r["peak_rss_mib"] for n, r in runs.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", default="gamma_24.6.1^6")
    ap.add_argument("--bounds", default="501,1001,2001,4001")
    ap.add_argument("--before", default=None,
                    help="src/ of a checkout with the per-modulus products")
    ap.add_argument("--blocks", default=None,
                    help="ROW_BLOCK values for the aswd time and peak RSS")
    ap.add_argument("--out", default=None)
    ap.add_argument("--child", nargs=4, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        mode, src, group, arg = args.child
        print(json.dumps(child(mode, src, group, int(arg))))
        return 0
    bounds = [int(n) for n in args.bounds.split(",")]
    record = {"metric": f"residues of both basis forms of {args.group} through "
                        "printed index N, mod p^2 for 5 <= p <= 97 and mod 65521",
              "unit": "s",
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(),
              "after": series_record("after", str(SRC), args.group, bounds)}
    if args.before:
        record["before"] = series_record("before", args.before, args.group, bounds)
    if args.blocks:
        sides = [(b, str(SRC), int(b)) for b in args.blocks.split(",")]
        if args.before:
            sides.append(("before", args.before, 0))
        record["aswd_pmax97_pn1000_by_row_block"] = {
            name: median_of_three("aswd", src, args.group, block)
            for name, src, block in sides}
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
