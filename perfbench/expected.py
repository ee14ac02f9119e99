"""Parsers and exact comparisons for the outputs the benchmark checks.

Outputs are read into dicts keyed by what a row is about (group, family,
prime), so that comparisons do not depend on the order the program was
given its inputs in.
"""

from __future__ import annotations

import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

L432_DIVISOR_SLOT = {"1": 0, "sqrt2": 1, "sqrt-3": 2, "sqrt-6": 3}


def _keyed(pairs) -> tuple[dict, int]:
    """dict of (key, value) pairs and the number of repeated keys."""
    out, repeats = {}, 0
    for key, value in pairs:
        repeats += key in out
        out[key] = value
    return out, repeats


def parse_trace_csv(text: str):
    """{(group, parameterization, p): (tr_p, tr_p2)} from `traces` CSV, and
    the number of repeated rows (1 for a missing header)."""
    lines = text.splitlines()
    if not lines or lines[0] != "group,parameterization,p,tr_p,tr_p2":
        return {}, 1
    pairs = []
    for line in lines[1:]:
        g, label, p, tr, tr2 = line.split(",")
        pairs.append(((g, label, int(p)), (int(tr), int(tr2))))
    return _keyed(pairs)


def parse_apscan(text: str):
    """{("tr", group, label, p): trace} and {("ap", tag, "", p): "c0,c1,c2,c3"}."""
    pairs = []
    for line in text.splitlines():
        kind, rest = line.split(",", 1)
        if kind == "tr":
            g, label, p, value = rest.split(",")
            pairs.append((("tr", g, label, int(p)), value))
        else:
            tag, p, coeffs = rest.split(",", 2)
            pairs.append((("ap", tag, "", int(p)), coeffs))
    return _keyed(pairs)


def parse_aswd(text: str):
    """{(group, p): report line} from human-format `aswd` output."""
    pairs = []
    for line in text.splitlines():
        group, rest = line.split(" p=", 1)
        pairs.append(((group, int(rest.split(":", 1)[0])), line))
    return _keyed(pairs)


def golden_traces(golden: Path) -> dict:
    return parse_trace_csv((golden / "traces.csv").read_text(encoding="utf-8"))[0]


def golden_newform_values(golden: Path) -> dict:
    """Published A_p of L48 and L432 in the ap-scan format."""
    out = {}
    for line in (golden / "newform_L48_primes.csv").read_text(encoding="utf-8").splitlines()[1:]:
        p, ap = line.split(",")
        out[("ap", "L48", "", int(p))] = f"{int(ap)},0,0,0"
    for line in (golden / "newform_L432_primes.csv").read_text(encoding="utf-8").splitlines()[1:]:
        p, divisor, value = line.split(",")
        coeffs = ["0"] * 4
        coeffs[L432_DIVISOR_SLOT[divisor]] = str(int(value))
        out[("ap", "L432", "", int(p))] = ",".join(coeffs)
    return out


def golden_ratios(path: Path) -> dict[int, tuple[str, int, int]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.strip():
            p, kind, c1, c2 = line.split(",")
            out[int(p)] = (kind, int(c1), int(c2))
    return out


_CONSTANTS = re.compile(r": (case1|case2)  a_np/[ab]_n=(\d+) b_np/[ab]_n=(\d+)")


def diff_ratios(group: str, reports: dict, golden: dict) -> list[str]:
    """Published ratio rows the aswd report lines disagree with.  A row whose
    constants are all zero matches under either case label, as in the CLI's
    own --golden check."""
    bad = []
    for p, want in sorted(golden.items()):
        line = reports.get((group, p), "")
        m = _CONSTANTS.search(line)
        got = (m.group(1), int(m.group(2)), int(m.group(3))) if m else None
        if got == want or (got and got[1:] == (0, 0) == want[1:]):
            continue
        bad.append(f"p={p}: got {got}, want {want}")
    return bad


def load(name: str) -> str:
    return (EXPECTED / name).read_text(encoding="utf-8")
