"""Time the E8 fiber-trace table over F_{p^2} in two checkouts and fit the
scaling exponent k of t ~ p^k.

    python bench/fiber_tables.py --before <checkout> --after <checkout> \
        [--primes 73,101,151,211] [--out BENCH.json]

Each checkout is timed in its own child interpreter that imports ``noncong``
from the checkout's ``src/``.  A table is built after clearing the table
cache; the reported time is the median of three builds when one build takes
under a second, else the single build.  The exponent is the least-squares
slope of log t against log p.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time


def time_tables(primes: list[int]) -> dict[int, float]:
    from noncong.traces import fiber_trace_table
    fiber_trace_table("E8", 5, True)            # first-call imports
    out = {}
    for p in primes:
        runs = []
        while len(runs) < (1 if runs and runs[0] >= 1.0 else 3):
            fiber_trace_table.cache_clear()
            t0 = time.perf_counter()
            fiber_trace_table("E8", p, True)
            runs.append(time.perf_counter() - t0)
        out[p] = statistics.median(runs)
    return out


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(p) for p in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(checkout: str, primes: list[int]) -> dict:
    code = ("import json, sys, fiber_tables; "
            "print(json.dumps(fiber_tables.time_tables(json.loads(sys.argv[1]))))")
    path = os.pathsep.join([os.path.join(checkout, "src"),
                            os.path.dirname(os.path.abspath(__file__))])
    res = subprocess.run([sys.executable, "-c", code, json.dumps(primes)],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    times = {int(p): t for p, t in json.loads(res.stdout).items()}
    return {"table_s": {str(p): round(t, 4) for p, t in times.items()},
            "exponent": round(fit_exponent(times), 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--primes", default="73,101,151,211")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    primes = [int(p) for p in args.primes.split(",")]
    record = {"metric": "fiber_trace_table('E8', p, squared=True) wall time",
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
