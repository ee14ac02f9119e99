"""Time the exact basis against the mod-p^2 residue path for one group and
fit the scaling exponent k of t ~ N^k.

    python bench/basis_residues.py [--group gamma_24.6.1^6] \
        [--bounds 501,1001,2001] [--out BENCH.json]

For each printed-index bound N the script times, in this process and from
cold caches:

* exact: ``basis_q_expansions(group, N)``, both forms as exact Puiseux
  series (Miller cube roots over Z[1/3]);
* residues: ``coefficient_residues(group, which, N, p*p)`` for both forms
  and every prime 5 <= p <= 97, the sequences one ``noncong aswd --pmax 97``
  run builds (eta factors, int64 products mod p^2, Newton cube root).

A residue timing is the median of three runs; an exact timing is one run
once it takes a second or more.  The exponent is the least-squares slope of
log t against log N.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noncong import catalog, series  # noqa: E402

PRIMES = [p for p in catalog.primes_upto(97) if p >= 5]


def exact(group, bound: int) -> None:
    catalog._basis_cached.cache_clear()
    catalog.basis_q_expansions(group, bound)


def residues(group, bound: int) -> None:
    series._eta_power_ints.cache_clear()
    for p in PRIMES:
        for which in "ab":
            catalog.coefficient_residues(group, which, bound, p * p)


def timed(fn, *args) -> float:
    runs = []
    while len(runs) < (1 if runs and runs[0] >= 1.0 else 3):
        t0 = time.perf_counter()
        fn(*args)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def fit_exponent(times: dict[int, float]) -> float:
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", default="gamma_24.6.1^6")
    ap.add_argument("--bounds", default="501,1001,2001")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    group = catalog.get_group(args.group)
    bounds = [int(n) for n in args.bounds.split(",")]
    residues(group, 50)                      # first-call imports
    record = {"metric": f"basis of {group.name} (mu={group.mu}) through printed index N",
              "unit": "s",
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(),
              "residue_primes": f"5..97 ({len(PRIMES)} moduli p^2, both forms)"}
    for name, fn in (("exact", exact), ("residues", residues)):
        times = {n: timed(fn, group, n) for n in bounds}
        record[name] = {"time_s": {str(n): round(t, 4) for n, t in times.items()},
                        "exponent": round(fit_exponent(times), 3)}
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
