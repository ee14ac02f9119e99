"""Time the exact integer series of two checkouts, the newform
coefficients A_p of L48 and L432 and the exact basis of one group, and fit
the scaling exponent k of t ~ N^k.

    python bench/newform_coeffs.py --before <checkout> --after <checkout> \
        [--bounds 1009,2003,4001] [--basis-bounds 501,1001,2001] [--out BENCH.json]

Every measurement is a child interpreter that imports ``noncong`` from the
checkout's ``src/`` and starts from cold caches, so the exact eta powers
and everything built from them are computed inside the timing:

* for each form and bound N in ``--bounds``, ``newform_an(form, p)`` for
  every prime 5 <= p <= N in ascending order, as ``perfbench``'s ap-scan
  asks for them;
* for each N in ``--basis-bounds``, ``basis_q_expansions(BASIS_GROUP, N)``,
  both exact basis forms (eta quotient expansions and their cube roots) of
  one of the five groups with mu = 1, whose forms cost most.

A timing is the median of three children; the peak RSS is that of the
median run's child and includes the interpreter.
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

FORMS = ("L48", "L432")
BASIS_GROUP = "gamma_24.6.1^6"


def child(form: str, bound: int) -> dict:
    """One cold measurement in this (fresh) interpreter: the newform `form`
    or, for a group name, its exact basis."""
    from noncong import catalog
    if form in FORMS:
        primes = [p for p in catalog.primes_upto(bound) if p >= 5]
        t0 = time.perf_counter()
        for p in primes:
            catalog.newform_an(form, p)
    else:
        group = catalog.get_group(form)
        t0 = time.perf_counter()
        catalog.basis_q_expansions(group, bound)
    return {"time_s": time.perf_counter() - t0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(checkout: str, plan: dict[str, list[int]]) -> dict:
    """{form or group: timings} over the bounds `plan` gives each."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    out = {}
    for form, bounds in plan.items():
        times, peaks = {}, {}
        for n in bounds:
            runs = sorted((json.loads(subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", form, str(n)],
                env=env, capture_output=True, text=True, check=True).stdout)
                for _ in range(3)), key=lambda r: r["time_s"])
            times[n], peaks[n] = runs[1]["time_s"], runs[1]["peak_rss_mib"]
            print(f"{checkout} {form} N={n}: {times[n]:.4f} s, {peaks[n]:.0f} MiB",
                  file=sys.stderr)
        out[form] = {"time_s": {str(n): round(t, 4) for n, t in times.items()},
                     "exponent": round(fit_exponent(times), 3),
                     "peak_rss_mib": {str(n): round(m, 1) for n, m in peaks.items()}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--bounds", default="1009,2003,4001",
                    help="prime bounds N of the newform coefficients")
    ap.add_argument("--basis-bounds", default="501,1001,2001",
                    help="printed-index bounds N of the exact basis")
    ap.add_argument("--out", default=None)
    ap.add_argument("--child", nargs=2, metavar=("FORM", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]))))
        return 0
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    plan = {form: [int(n) for n in args.bounds.split(",")] for form in FORMS}
    plan[BASIS_GROUP] = [int(n) for n in args.basis_bounds.split(",")]
    record = {"metric": "wall time, from cold caches, of newform_an(form, p) for every "
                        "prime 5 <= p <= N in ascending order (L48, L432) and of "
                        f"basis_q_expansions({BASIS_GROUP}, N) ({BASIS_GROUP}); "
                        "peak RSS of the measuring process",
              "unit": "s",
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(),
              "before": measure(args.before, plan),
              "after": measure(args.after, plan)}
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
