"""Time the fiber-trace kernel in two checkouts and fit the scaling exponent
k of t ~ p^k for each measurement.

    python bench/fiber_tables.py --before <checkout> --after <checkout> \
        [--primes 101,211,1009,2003] [--out BENCH.json]

Four measurements per prime p:

* ``table_p2``: ``fiber_trace_table("E8", p, True)`` with the field and
  table caches cleared, so the field set-up (character, inverse or log
  tables) counts;
* ``table_p``: the same over F_p;
* ``pair_p2``: the E8 and then the E6 table over one F_{p^2}, caches
  cleared as for ``table_p2``, so the pair shares one field set-up;
* ``family_sums_p2``: ``frobenius_trace`` of the twelve families of the
  main groups over F_{p^2}, with both fiber tables and the field built
  beforehand (not timed).

Every (checkout, measurement, prime) runs in its own child interpreter that
imports ``noncong`` from the checkout's ``src/`` and also reports its peak
RSS, which includes the interpreter and numpy.  A timing is the median of
repeated runs: as many as fit in one second, at least three and at most 25.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

MEASUREMENTS = ("table_p2", "table_p", "pair_p2", "family_sums_p2")


def child(kind: str, p: int) -> dict:
    """One measurement in this (fresh) interpreter; see the module doc."""
    import noncong
    from noncong import traces
    traces.fiber_trace_table("E8", 5, True)            # first-call imports
    if kind == "family_sums_p2":
        families = [fam for name in noncong.MAIN_GROUPS
                    for fam in traces.surface_families(noncong.GROUPS[name])]
        for level in ("E8", "E6"):
            traces.fiber_trace_table(level, p, True)
        traces.field_for(p, True).inv_table()

        def run():
            for fam in families:
                traces.frobenius_trace(fam, p, True)
    else:
        levels = ("E8", "E6") if kind == "pair_p2" else ("E8",)

        def run():
            traces.field_for.cache_clear()
            traces.fiber_trace_table.cache_clear()
            for level in levels:
                traces.fiber_trace_table(level, p, kind != "table_p")
    runs = []
    while len(runs) < 3 or (sum(runs) < 1.0 and len(runs) < 25):
        t0 = time.perf_counter()
        run()
        runs.append(time.perf_counter() - t0)
    return {"time_s": statistics.median(runs),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(p) for p in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(checkout: str, primes: list[int]) -> dict:
    path = os.path.join(checkout, "src")
    out = {}
    for kind in MEASUREMENTS:
        times, peaks = {}, {}
        for p in primes:
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", kind, str(p)],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True, text=True, check=True)
            got = json.loads(res.stdout)
            times[p], peaks[p] = got["time_s"], got["peak_rss_mib"]
            print(f"{checkout} {kind} p={p}: {got['time_s']:.4f} s, "
                  f"{got['peak_rss_mib']:.0f} MiB", file=sys.stderr)
        out[kind] = {"time_s": {str(p): round(t, 4) for p, t in times.items()},
                     "exponent": round(fit_exponent(times), 3),
                     "peak_rss_mib": {str(p): round(m, 1) for p, m in peaks.items()}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--primes", default="101,211,1009,2003")
    ap.add_argument("--out", default=None)
    ap.add_argument("--child", nargs=2, metavar=("KIND", "P"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]))))
        return 0
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    primes = [int(p) for p in args.primes.split(",")]
    record = {"metric": "wall time of the E8 fiber-trace table over F_{p^2} and F_p "
                        "and of the E8 and E6 tables over one F_{p^2} (cold field) and "
                        "of the twelve families' F_{p^2} trace sums (warm tables); "
                        "peak RSS of the measuring process",
              "unit": "s",
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(),
              "before": measure(args.before, primes),
              "after": measure(args.after, primes)}
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
