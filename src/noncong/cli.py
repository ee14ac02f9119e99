"""Command-line surface: expand / traces / aswd / catalog / dim /
noncongruence / isogeny.

All numeric output is exact: rationals as num/den, residues as decimal
integers.  Exit code 0 means every requested check passed and 1 that a check
failed (failures listed one per line on stderr); input the program cannot act
on is refused with one `refused: ...` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from . import catalog
from .series import EtaQuotient, eisenstein_e6
from .catalog import GROUPS, MAIN_GROUPS, get_group


class InputRefused(ValueError):
    """Input the command cannot act on; reported on one line, exit code 2."""


def _group(name: str):
    try:
        return get_group(name)
    except KeyError as e:
        raise InputRefused(e.args[0]) from None


def _parse_primes(text: str) -> list[int]:
    """'5..23,73' -> primes in [5,23] plus 73.  Malformed parts, non-primes,
    reversed ranges, bounds above PRIME_LIMIT and an empty selection are
    refused."""
    primes = catalog.primes_upto(PRIME_LIMIT)
    out = []
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        try:
            bounds = (int(lo), int(hi)) if dots else (int(part),)
        except ValueError:
            raise InputRefused(f"{part!r} is neither a prime nor a range a..b") from None
        if dots and bounds[0] > bounds[1]:
            raise InputRefused(f"range {part!r} runs downward; write {bounds[1]}..{bounds[0]}")
        if max(bounds) > PRIME_LIMIT:
            raise InputRefused(f"{max(bounds)} is above the prime limit {PRIME_LIMIT}")
        if dots:
            out.extend(p for p in primes if bounds[0] <= p <= bounds[1])
        elif bounds[0] in primes:
            out.append(bounds[0])
        else:
            raise InputRefused(f"{bounds[0]} is not prime")
    if not out:
        raise InputRefused(f"{text!r} selects no primes")
    return sorted(set(out))


def _print_series(series, fmt: str, limit: int | None = None):
    if fmt == "csv":
        sys.stdout.write(series.serialize())
        return
    parts = []
    terms = series.terms()
    if limit:
        terms = terms[:limit]
    for e, c in terms:
        coeff = f"{c}" if c.denominator == 1 else f"({c})"
        expo = f"q^({e})" if e.denominator != 1 else (f"q^{e}" if e != 1 else "q")
        parts.append(f"{coeff}*{expo}" if e != 0 else f"{coeff}")
    print(" + ".join(parts) if parts else "0")


# Largest prime `traces` and `isogeny` accept in --primes: at p = 2003 a
# cold `traces gamma_24.6.1^6 --primes 2003`, which builds the E8 tables over
# F_p and F_{p^2}, takes 3.5 s and peaks at 257 MiB (2-vCPU x86_64).
PRIME_LIMIT = 2003

# Largest --order `expand` accepts.  The forms of the groups with mu = 1 cost
# most: a cold `expand gamma_24.6.1^6 h1` takes 0.7 s and 20 MiB at order
# 1000 and 8.8 s and 28 MiB at order 2000 (2-vCPU x86_64).
ORDER_LIMIT = 2000

# Largest --root `expand eta` accepts; it admits every eta^24^(1/k) =
# eta^(24/k).  `expand` divides k and the exponents by their gcd first, so
# the 24th root of eta^-24 is eta^-1 (0.3 s at order 2000).  A root that
# remains runs its recurrence on the unit as a series in q^s, s the gcd of
# its exponents, so over about order terms whatever k is.  At order 2000
# the square root of eta takes 1.0 s and 36 MiB, the 24th root of eta
# 6.8 s and 171 MiB, and the 24th root of eta^-1, whose unit has no zero
# coefficient, 56 s and 173 MiB (2-vCPU x86_64).
ROOT_LIMIT = 24

# Largest --pmax and --pn-bound `aswd` accepts.  At both limits one cold aswd
# process takes 2.8 to 13.7 s and peaks at 82 to 102 MiB, depending on the
# group; gamma_8^3.6.3.1^3 is the slowest (2-vCPU x86_64).
ASWD_PRIME_LIMIT = 2003
PN_BOUND_LIMIT = 10000


def cmd_expand(args) -> int:
    order = args.order
    if order < 1:
        raise InputRefused(f"--order {order} is not a positive integer")
    if order > ORDER_LIMIT:
        raise InputRefused(f"--order {order} is above the limit {ORDER_LIMIT}")
    if args.root < 1:
        raise InputRefused(f"--root {args.root} is not a positive integer")
    if args.root > ROOT_LIMIT:
        raise InputRefused(f"--root {args.root} is above the limit {ROOT_LIMIT}")
    if args.root != 1 and args.identifier != "eta":
        raise InputRefused(f"--root {args.root} applies to expand eta only")
    if args.identifier == "E6":
        if args.form is not None:
            raise InputRefused(f"expand E6 takes no form, not {args.form!r}")
        _print_series(eisenstein_e6(order), args.format)
        return 0
    if args.identifier == "eta":
        spec = args.form or ""
        try:
            eq = EtaQuotient.parse(spec)
            # (prod eta^e)^(1/k) = (prod eta^(e/d))^(d/k) for d = gcd(k, every e):
            # a smaller root, none where k divides every exponent
            d = gcd(args.root, *(e for _, e in eq.factors))
            eq = EtaQuotient(tuple((m, e // d) for m, e in eq.factors))
            s = eq.expansion(order + 2).nth_root(args.root // d)
        except ValueError as e:
            raise InputRefused(f"eta quotient {spec!r}: {e}") from None
        _print_series(s.truncate(min(s.trunc, (order + 1) * s.mu)), args.format)
        return 0
    g = _group(args.identifier)
    which = args.form or "h1"
    if which not in ("h1", "h2"):
        raise InputRefused(f"form {which!r} is neither h1 nor h2")
    form = catalog.basis_form(g, "a" if which == "h1" else "b", order + 1)
    _print_series(form, args.format, limit=order)
    return 0


def cmd_traces(args) -> int:
    from . import surfaces, traces
    primes = _parse_primes(args.primes)
    groups = [GROUPS[n] for n in MAIN_GROUPS] if args.group in (None, "all") \
        else [_group(args.group)]
    for g in groups:
        if g.name not in surfaces.COVERINGS:
            raise InputRefused(f"{g.name} carries no surface parameterization")
    golden = _read_golden(args.golden, traces.CSV_HEADER, (str, str, int, int, int)) \
        if args.golden else None
    try:
        rows = traces.trace_rows(groups, primes)
    except traces.BadPrimeError as e:
        raise InputRefused(str(e)) from None
    if args.format == "csv":
        sys.stdout.write(traces.rows_to_csv(rows))
    elif args.format == "json":
        print(json.dumps([dict(group=g, parameterization=l, p=p, tr_p=a, tr_p2=b)
                          for g, l, p, a, b in rows]))
    else:
        for g, l, p, a, b in rows:
            print(f"{g} {l} p={p}: {a}, {b}")
    if golden is not None and traces.rows_to_csv(rows) != golden[0]:
        print(f"golden mismatch against {args.golden}", file=sys.stderr)
        return 1
    return 0


def _int_or_blank(text: str) -> int | None:
    return int(text) if text else None


# header and column types of the aswd golden CSV files (an indeterminate row
# has blank constants)
ASWD_GOLDEN = ("p,case,c1,c2", (int, str, _int_or_blank, _int_or_blank))


def _read_golden(path: str, header: str, types) -> tuple[str, list[tuple]]:
    """The text of a golden CSV file and its rows, read before any
    computation; a missing, unreadable or malformed file is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else "not UTF-8 text"
        raise InputRefused(f"golden file {path}: {reason}") from None
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise InputRefused(f"golden file {path}: the first line is not {header!r}")
    rows = []
    for number, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            rows.append(tuple(t(f) for t, f in zip(types, line.strip().split(","), strict=True)))
        except ValueError:
            raise InputRefused(f"golden file {path}, line {number}: {line.strip()!r} "
                               f"is not a row of {header!r}") from None
    return text, rows


def cmd_aswd(args) -> int:
    from . import congruence
    g = _group(args.group)
    pmax, bound = args.pmax, args.pn_bound
    if pmax < 5:
        raise InputRefused(f"--pmax {pmax} selects no prime p >= 5")
    if bound < pmax:
        raise InputRefused(f"--pn-bound {bound} is below --pmax {pmax}: "
                           "each p needs n*p <= pn-bound for n = 1 at least")
    if pmax > ASWD_PRIME_LIMIT:
        raise InputRefused(f"--pmax {pmax} is above the prime limit {ASWD_PRIME_LIMIT}")
    if bound > PN_BOUND_LIMIT:
        raise InputRefused(f"--pn-bound {bound} is above the limit {PN_BOUND_LIMIT}")
    if args.three_term is not None and args.three_term < 0:
        raise InputRefused(f"--three-term {args.three_term} is negative")
    golden = _read_golden(args.golden, *ASWD_GOLDEN)[1] if args.golden else None
    primes = [p for p in catalog.primes_upto(pmax) if p >= 5]
    try:
        reports = congruence.detect_bases(g, primes, bound=bound,
                                          three_term_n_bound=args.three_term)
    except congruence.InsufficientDataError as e:
        raise InputRefused(f"--pn-bound {bound} is too small for {g.name}: {e}") from None
    if args.format == "json":
        print("[" + ",".join(r.to_json() for r in reports) + "]")
    elif args.format == "csv":
        sys.stdout.write(_aswd_csv(reports))
    else:
        for r in reports:
            line = f"{r.group} p={r.p}: {r.case_kind}"
            if r.case_kind == "case1":
                line += f"  a_np/a_n={r.constants['a']} b_np/b_n={r.constants['b']}"
            elif r.case_kind == "case2":
                line += f"  a_np/b_n={r.constants['ab']} b_np/a_n={r.constants['ba']}"
                if r.ap_squared is not None:
                    line += f"  alpha^2={r.alpha_squared} Ap^2={r.ap_squared}"
            for which, m in sorted(r.matches.items()):
                if m is None:
                    line += f"  [{which}: no newform match]"
                else:
                    line += (f"  [{which}: {m.tag} * u={m.unit} "
                             f"(order {m.order}, mod p^{m.modulus_exponent})]")
            print(line)
    if golden is not None and _diff_golden_aswd(reports, golden):
        return 1
    rc = 0
    failed_rows = [[r.p, which, n] for r in reports
                   for which, rep in sorted(r.three_term.items()) for n in rep.failures]
    if failed_rows:
        print(json.dumps({"threeTermFailures": failed_rows}), file=sys.stderr)
        rc = 1
    failures = [(r.p, which) for r in reports
                for which, m in r.matches.items() if m is None]
    if failures and args.strict:
        print(json.dumps({"unmatched": sorted(set(failures))}), file=sys.stderr)
        rc = 1
    return rc


def _case_row(r) -> tuple:
    """(case, c1, c2) of one report; an indeterminate row has no constants."""
    if r.case_kind == "case1":
        return "case1", r.constants["a"], r.constants["b"]
    if r.case_kind == "case2":
        return "case2", r.constants["ab"], r.constants["ba"]
    return "indeterminate", None, None


def _aswd_csv(reports) -> str:
    lines = [ASWD_GOLDEN[0]]
    for r in reports:
        lines.append(",".join(["" if v is None else str(v) for v in (r.p, *_case_row(r))]))
    return "\n".join(lines) + "\n"


def _diff_golden_aswd(reports, golden) -> int:
    by_p = {r.p: _case_row(r) for r in reports}
    rc = 0
    for p, *want in golden:
        got, want = by_p.get(p), tuple(want)
        # a row where every tested combination vanishes mod p^2 carries
        # the same information under either case label
        if got != want and not (got and got[1:] == want[1:] == (0, 0)):
            print(f"golden mismatch p={p}: got {got}, want {want}", file=sys.stderr)
            rc = 1
    return rc


def cmd_catalog(args) -> int:
    sys.stdout.write(catalog.export_text())
    return 0


def cmd_dim(args) -> int:
    names = sorted(GROUPS, key=lambda n: GROUPS[n].variant_of is not None) \
        if args.group in (None, "all") else (_group(args.group).name,)
    for name in names:
        g = GROUPS[name]
        u, ui = catalog.derived_cusp_counts(g)
        d = catalog.dim_cusp_forms(3, 0, u, ui)
        print(f"{name}: dim S3 = {d}  (derived u={u}, u'={ui})")
    return 0


def cmd_noncongruence(args) -> int:
    names = tuple(GROUPS) if args.group in (None, "all") else (_group(args.group).name,)
    rc = 0
    for name in names:
        verdict = catalog.noncongruence_test(GROUPS[name].cusp_widths)
        print(f"{name}: {verdict}")
        if verdict != "noncongruence":
            rc = 1
    return rc


def cmd_isogeny(args) -> int:
    from . import surfaces
    if args.samples < 1:
        raise InputRefused(f"--samples {args.samples} is not a positive integer")
    if args.pair:
        rel = surfaces.INTER_FAMILY_RELATIONS.get(args.pair)
        if rel is None:
            raise InputRefused(f"--pair {args.pair!r} is not a known relation; known: "
                               + ", ".join(surfaces.INTER_FAMILY_RELATIONS))
    elif args.self_group is None:
        raise InputRefused("give --pair or --self")
    else:
        g = _group(args.self_group)
        if g.name not in surfaces.COVERINGS:
            raise InputRefused(f"{g.name} carries no involution data")
        rel = surfaces.COVERINGS[g.name].relation
    primes = _parse_primes(args.primes) if args.primes else (101, 103)
    if primes[0] < 5:
        raise InputRefused(f"--primes selects {primes[0]}; the isogeny check needs p >= 5")
    try:
        ok = surfaces.isogeny_relation_check(
            rel, mode=args.mode, primes=primes, samples=args.samples,
            modpoly_path=args.modpoly)
    except (surfaces.MissingPolynomialData, ValueError) as e:   # no data, or too few sample points
        raise InputRefused(str(e)) from None
    print("pass" if ok else "FAIL")
    return 0 if ok else 1


# every output format; each command lists the ones it writes
FORMATS = ("human", "csv", "json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="noncong")
    ap.add_argument("--format", choices=FORMATS, default="human")
    ap.add_argument("--modpoly", default=None, help="modular polynomial data file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="q-expansions of catalog forms and eta quotients")
    p.add_argument("identifier", help="group name, 'eta', or 'E6'")
    p.add_argument("form", nargs="?", default=None,
                   help="h1/h2 for groups; 'm:e,...' spec after 'eta'")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--root", type=int, default=1)
    p.set_defaults(fn=cmd_expand, formats=("human", "csv"))

    p = sub.add_parser("traces", help="Frobenius traces over F_p and F_{p^2}")
    p.add_argument("group", nargs="?", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.add_argument("--primes", default="5..23,73")
    p.add_argument("--golden", default=None)
    p.set_defaults(fn=cmd_traces, formats=FORMATS)

    p = sub.add_parser("aswd", help="mod p^2 congruence reports for one group")
    p.add_argument("group")
    p.add_argument("--pmax", type=int, default=47)
    p.add_argument("--pn-bound", dest="pn_bound", type=int, default=500,
                   help="ratio tests run over pn <= this bound (default 500)")
    p.add_argument("--golden", default=None)
    p.add_argument("--three-term", dest="three_term", type=int, default=None,
                   help="attach three-term checks for case-1 rows up to this n")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when a constant matches no newform")
    p.set_defaults(fn=cmd_aswd, formats=FORMATS)

    p = sub.add_parser("catalog", help="dump the machine-readable catalog")
    p.set_defaults(fn=cmd_catalog, formats=("human",))

    p = sub.add_parser("dim", help="cusp-form dimensions with derived (u, u')")
    p.add_argument("--group", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.set_defaults(fn=cmd_dim, formats=("human",))

    p = sub.add_parser("noncongruence", help="width-multiset noncongruence verdicts")
    p.add_argument("--group", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.set_defaults(fn=cmd_noncongruence, formats=("human",))

    p = sub.add_parser("isogeny", help="modular-polynomial isogeny relations")
    p.add_argument("--pair", default=None, help="an inter-family relation, e.g. 4a")
    p.add_argument("--self", dest="self_group", default=None,
                   help="check a group's own involution relation")
    p.add_argument("--mode", choices=("sampled", "symbolic"), default="sampled")
    p.add_argument("--primes", default=None)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_isogeny, formats=("human",))
    return ap


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        if args.format not in args.formats:
            raise InputRefused(f"--format {args.format} does not apply to {args.command}, "
                               f"which writes {' and '.join(args.formats)} output")
        return args.fn(args)
    except InputRefused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
