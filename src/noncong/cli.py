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
import sys

from . import catalog, congruence, surfaces, traces
from .series import EtaQuotient, eisenstein_e6, int64_fits
from .catalog import GROUPS, MAIN_GROUPS, get_group


class InputRefused(ValueError):
    """Input the command cannot act on; reported on one line, exit code 2."""


def _group(name: str):
    try:
        return get_group(name)
    except KeyError as e:
        raise InputRefused(e.args[0]) from None


def _parse_primes(text: str, limit: int | None = None) -> list[int]:
    """'5..23,73' -> primes in [5,23] plus 73.  Malformed parts, non-primes,
    bounds above ``limit`` and an empty selection are refused."""
    out = []
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        try:
            bounds = (int(lo), int(hi)) if dots else (int(part),)
        except ValueError:
            raise InputRefused(f"{part!r} is neither a prime nor a range a..b") from None
        if limit is not None and max(bounds) > limit:
            raise InputRefused(f"{max(bounds)} is above the prime limit {limit}")
        if dots:
            out.extend(p for p in catalog.primes_upto(max(bounds[1], 1)) if p >= bounds[0])
        else:
            n = bounds[0]
            if n < 2 or any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
                raise InputRefused(f"{n} is not prime")
            out.append(n)
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


def cmd_expand(args) -> int:
    order = args.order
    if order < 1:
        raise InputRefused(f"--order {order} is not a positive integer")
    if args.root < 1:
        raise InputRefused(f"--root {args.root} is not a positive integer")
    if args.identifier == "E6":
        _print_series(eisenstein_e6(order), args.format)
        return 0
    if args.identifier == "eta":
        spec = args.form or ""
        try:
            eq = EtaQuotient.parse(spec)
            s = eq.root_expansion(args.root, order + 2) if args.root > 1 \
                else eq.expansion(order + 2)
        except ValueError as e:
            raise InputRefused(f"eta quotient {spec!r}: {e}") from None
        _print_series(s.truncate(min(s.trunc, (order + 1) * s.mu)), args.format)
        return 0
    g = _group(args.identifier)
    which = args.form or "h1"
    if which not in ("h1", "h2"):
        raise InputRefused(f"form {which!r} is neither h1 nor h2")
    h1, h2 = catalog.basis_q_expansions(g, order + 1)
    _print_series((h1 if which == "h1" else h2), args.format, limit=order)
    return 0


def cmd_traces(args) -> int:
    primes = _parse_primes(args.primes, limit=traces.PRIME_LIMIT)
    groups = [GROUPS[n] for n in MAIN_GROUPS] if args.group in (None, "all") \
        else [_group(args.group)]
    try:
        rows = traces.trace_rows(groups, primes)
    except traces.BadPrimeError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(traces.rows_to_csv(rows))
    elif args.format == "json":
        print(json.dumps([dict(group=g, parameterization=l, p=p, tr_p=a, tr_p2=b)
                          for g, l, p, a, b in rows]))
    else:
        for g, l, p, a, b in rows:
            print(f"{g} {l} p={p}: {a}, {b}")
    if args.golden:
        return _diff_golden_traces(rows, args.golden)
    return 0


def _diff_golden_traces(rows, path: str) -> int:
    body = traces.rows_to_csv(rows)
    want = open(path, "r", encoding="utf-8").read()
    if body == want:
        return 0
    print(f"golden mismatch against {path}", file=sys.stderr)
    return 1


def cmd_aswd(args) -> int:
    g = _group(args.group)
    pmax, bound = args.pmax, args.pn_bound
    if pmax < 5:
        raise InputRefused(f"--pmax {pmax} selects no prime p >= 5")
    if bound < pmax:
        raise InputRefused(f"--pn-bound {bound} is below --pmax {pmax}: "
                           "each p needs n*p <= pn-bound for n = 1 at least")
    length = max(catalog.residue_length(g, which, bound) for which in "ab")
    if not int64_fits(length, max(pmax * pmax, congruence.AUX_PRIME)):
        raise InputRefused(f"--pn-bound {bound} with --pmax {pmax} overflows "
                           "the int64 series products mod p^2")
    primes = [p for p in catalog.primes_upto(pmax) if p >= 5]
    reports = [congruence.detect_basis(g, p, bound=bound,
                                       three_term_n_bound=args.three_term)
               for p in primes]
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
    if args.golden:
        rc = _diff_golden_aswd(reports, args.golden)
        if rc:
            return rc
    failures = [(r.p, which) for r in reports
                for which, m in r.matches.items() if m is None]
    if failures and args.strict:
        print(json.dumps({"unmatched": sorted(set(failures))}), file=sys.stderr)
        return 1
    return 0


def _aswd_csv(reports) -> str:
    lines = ["p,case,c1,c2"]
    for r in reports:
        if r.case_kind == "case1":
            lines.append(f"{r.p},case1,{r.constants['a']},{r.constants['b']}")
        elif r.case_kind == "case2":
            lines.append(f"{r.p},case2,{r.constants['ab']},{r.constants['ba']}")
        else:
            lines.append(f"{r.p},indeterminate,,")
    return "\n".join(lines) + "\n"


def _diff_golden_aswd(reports, path: str) -> int:
    by_p = {}
    for r in reports:
        if r.case_kind == "case1":
            by_p[r.p] = ("case1", r.constants["a"], r.constants["b"])
        elif r.case_kind == "case2":
            by_p[r.p] = ("case2", r.constants["ab"], r.constants["ba"])
    bad = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header
        for line in fh:
            line = line.strip()
            if not line:
                continue
            p, kind, c1, c2 = line.split(",")
            want = (kind, int(c1), int(c2))
            got = by_p.get(int(p))
            if got == want:
                continue
            # a row where every tested combination vanishes mod p^2 carries
            # the same information under either case label
            if got and got[1:] == (0, 0) and want[1:] == (0, 0):
                continue
            bad.append((int(p), got, want))
    if bad:
        for p, got, want in bad:
            print(f"golden mismatch p={p}: got {got}, want {want}", file=sys.stderr)
        return 1
    return 0


def cmd_catalog(args) -> int:
    sys.stdout.write(catalog.export_text())
    return 0


def cmd_dim(args) -> int:
    names = MAIN_GROUPS + tuple(n for n in GROUPS if n.endswith("B")) \
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
    if args.samples < 1:
        raise InputRefused(f"--samples {args.samples} is not a positive integer")
    if args.pair:
        rel = surfaces.INTER_FAMILY_RELATIONS[args.pair]
    elif args.self_group is None:
        raise InputRefused("give --pair or --self")
    else:
        g = _group(args.self_group)
        rel = g.isogeny_data()
        if rel is None:
            raise InputRefused(f"{g.name} carries no involution data")
    primes = _parse_primes(args.primes, limit=traces.PRIME_LIMIT) \
        if args.primes else (101, 103)
    try:
        ok = surfaces.isogeny_relation_check(
            rel, mode=args.mode, primes=primes, samples=args.samples,
            modpoly_path=args.modpoly)
    except surfaces.MissingPolynomialData as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="noncong")
    ap.add_argument("--format", choices=("human", "csv", "json"), default="human")
    ap.add_argument("--modpoly", default=None, help="modular polynomial data file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="q-expansions of catalog forms and eta quotients")
    p.add_argument("identifier", help="group name, 'eta', or 'E6'")
    p.add_argument("form", nargs="?", default=None,
                   help="h1/h2 for groups; 'm:e,...' spec after 'eta'")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--root", type=int, default=1)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("traces", help="Frobenius traces over F_p and F_{p^2}")
    p.add_argument("group", nargs="?", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.add_argument("--primes", default="5..23,73")
    p.add_argument("--golden", default=None)
    p.set_defaults(fn=cmd_traces)

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
    p.set_defaults(fn=cmd_aswd)

    p = sub.add_parser("catalog", help="dump the machine-readable catalog")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("dim", help="cusp-form dimensions with derived (u, u')")
    p.add_argument("--group", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("noncongruence", help="width-multiset noncongruence verdicts")
    p.add_argument("--group", default=None)
    p.add_argument("--all", dest="group", action="store_const", const="all")
    p.set_defaults(fn=cmd_noncongruence)

    p = sub.add_parser("isogeny", help="modular-polynomial isogeny relations")
    p.add_argument("--pair", choices=tuple(surfaces.INTER_FAMILY_RELATIONS), default=None)
    p.add_argument("--self", dest="self_group", default=None,
                   help="check a group's own involution relation")
    p.add_argument("--mode", choices=("sampled", "symbolic"), default="sampled")
    p.add_argument("--primes", default=None)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_isogeny)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputRefused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
