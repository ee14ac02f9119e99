"""Make and certify the expected outputs stored under perfbench/expected/.

    python3 perfbench/certify.py --write   # regenerate the files, then certify
    python3 perfbench/certify.py           # recompute and certify the stored files

The files hold the outputs the benchmark compares against beyond the
published tables in golden/: the p=101 rows of the trace table, the aswd
reports for p <= 97 at pn <= 1000, and the F_p traces and newform
coefficients A_p for 5 <= p <= 1000.  They were made with the program at the
commit that added the benchmark and are certified through paths independent
of the ones the benchmark times:

* every F_p trace (p = 101 and all ap-scan primes) equals minus the sum of
  the scalar ``local_trace`` over P^1(F_p);
* a seeded sample of the p=101 F_{p^2} traces equals the same scalar sum
  over P^1(F_{101^2});
* the L48 and L432 coefficients satisfy the exact Hecke relations
  (``hecke_check``) for every prime up to 1000, n <= 4;
* wherever golden/ publishes a value, the stored value agrees with it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
import time
from pathlib import Path

import expected as exp
from run import APSCAN_PMAX, ASWD_PMAX, ASWD_PN_BOUND, primes_between

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 1        # picks the F_{101^2} rows the scalar oracle recomputes
SAMPLE = 3      # how many of them


def golden_name(group: str) -> str:
    return group.replace("^", "-")


def oracle_trace(traces, family, p: int, squared: bool) -> int:
    """Tr(Frob_q) from the scalar local terms over P^1(F_q)."""
    field = traces.field_for(p, squared)
    points = [*field.elements(), "inf"]
    return -sum(traces.local_trace(family, field, pt).value for pt in points)


def families_by_label(noncong) -> dict[tuple[str, str], object]:
    return {(name, fam.label): fam for name in noncong.MAIN_GROUPS
            for fam in noncong.surface_families(noncong.GROUPS[name])}


def generate(noncong) -> dict[str, str]:
    import child
    from noncong import cli, traces
    out = {}
    groups = [noncong.GROUPS[n] for n in noncong.MAIN_GROUPS]
    out["traces_p101.csv"] = traces.rows_to_csv(traces.trace_rows(groups, [101]))
    for name in noncong.GROUPS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["aswd", name, "--pmax", str(ASWD_PMAX),
                           "--pn-bound", str(ASWD_PN_BOUND)])
        if rc:
            raise SystemExit(f"aswd {name} exited {rc}")
        out[f"aswd_{golden_name(name)}.txt"] = buf.getvalue()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        child.apscan(noncong, primes_between(5, APSCAN_PMAX))
    out["ap_scan.csv"] = buf.getvalue()
    return out


def certify(noncong, files: dict[str, str]) -> list[str]:
    """Independent checks of the expected files; returns the failures."""
    from noncong import traces
    bad = []
    fams = families_by_label(noncong)
    rows101 = exp.parse_trace_csv(files["traces_p101.csv"])[0]
    if len(rows101) != 12:
        bad.append(f"traces_p101.csv has {len(rows101)} rows, want 12")
    for (group, label, p), (tr, tr2) in rows101.items():
        if oracle_trace(traces, fams[(group, label)], p, False) != tr:
            bad.append(f"F_{p} trace of {label}")
    for group, label, p in random.Random(SEED).sample(sorted(rows101), SAMPLE):
        t0 = time.perf_counter()
        got = oracle_trace(traces, fams[(group, label)], p, True)
        print(f"oracle F_{p}^2 {label}: {got} ({time.perf_counter() - t0:.1f} s)")
        if got != rows101[(group, label, p)][1]:
            bad.append(f"F_{p}^2 trace of {label}")
    scan = exp.parse_apscan(files["ap_scan.csv"])[0]
    want_keys = {("tr", g, l, p) for (g, l) in fams for p in primes_between(5, APSCAN_PMAX)}
    want_keys |= {("ap", t, "", p) for t in ("L48", "L432") for p in primes_between(5, APSCAN_PMAX)}
    if set(scan) != want_keys:
        bad.append("ap_scan.csv does not cover every (family, prime) exactly once")
    for (kind, g, l, p), value in sorted(scan.items()):
        if kind == "tr" and oracle_trace(traces, fams[(g, l)], p, False) != int(value):
            bad.append(f"F_{p} trace of {l}")
    for tag in ("L48", "L432"):
        rep = noncong.hecke_check(tag, APSCAN_PMAX, 4)
        if not rep.ok:
            bad.append(f"Hecke relations of {tag}: {rep.violations[:5]}")
    golden = exp.golden_newform_values(ROOT / "golden")
    for key, value in golden.items():
        if scan.get(key) != value:
            bad.append(f"{key}: stored {scan.get(key)} != golden {value}")
    for name in noncong.GROUPS:
        text = files[f"aswd_{golden_name(name)}.txt"]
        got = exp.parse_aswd(text)[0]
        if sorted(p for _, p in got) != primes_between(5, ASWD_PMAX):
            bad.append(f"aswd {name}: wrong primes")
        ratios = exp.golden_ratios(ROOT / "golden" / f"ratios_{golden_name(name)}.csv")
        bad += [f"aswd {name}: {m}" for m in exp.diff_ratios(name, got, ratios)]
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the expected files before certifying them")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import noncong
    fresh = generate(noncong)
    if args.write:
        exp.EXPECTED.mkdir(exist_ok=True)
        for name, text in fresh.items():
            (exp.EXPECTED / name).write_text(text, encoding="utf-8")
    stored = {name: exp.load(name) for name in fresh}
    bad = [f"{name} differs from the program's output"
           for name in fresh if fresh[name] != stored[name]]
    bad += certify(noncong, stored)
    for line in bad:
        print("FAIL", line, file=sys.stderr)
    print("certified" if not bad else f"{len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
