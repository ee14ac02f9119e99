"""Mod-p^2 verification of the three-term congruences.

Coefficient ratios a_{np}/a_n (and the cross ratios a_{np}/b_n, b_{np}/a_n)
are tested for constancy mod p^2 over n with p not dividing n and np below a
bound; a constant pair pins down the basis kind and, for the cross case,
alpha^2 and A_p^2.  Detected constants are matched against the catalog
newform coefficients up to a sixth root of unity, dropping to modulus p when
a common factor of p must be cancelled first.

``detect_basis`` works on the basis coefficients mod p^2 only
(``residues.coefficient_residues``); no exact series is built.  A run over
many primes (``detect_bases``, what ``noncong aswd`` calls) takes them
``ROW_BLOCK`` at a time: one Newton cube root gives both basis forms mod
the p^2 of a block, tested before the next is built; ``detect_basis``
alone builds the batch of its one prime.  The ratio tests read the rows
directly, over each denominator's usable n found once for both numerators.
Whether a verdict is vacuous (every tested numerator zero by construction)
is read off the lattice of exponents the form can carry:
``residues.lattice_indices`` gives -1 for every tested index np off it.

Every residue is reduced mod p^2, with p passed alongside it: int64 batch
rows in the ratio tests, plain ints for the constants they yield.
The three-term rows that ``detect_basis`` attaches are certified mod p^2
only, where the tail chi(p) p^2 a_{n/p} vanishes; ``aswd_three_term_check``
is the exact p-adic check on rational coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .catalog import BiquadraticNumber, GroupRecord, newform_an
# unused here; kept as the name perfbench's tracer wraps in this module
from .catalog import coefficient_sequence  # noqa: F401
from .residues import coefficient_residues, lattice_indices

import numpy as np


class InsufficientDataError(ValueError):
    pass


class NotPIntegralError(ValueError):
    pass


def padic_valuation(x, p: int):
    """ord_p of a rational number; +infinity for 0."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def reduce_mod_p2(x, p: int) -> int:
    """x = num/den as a residue mod p^2; den must be a unit mod p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegralError(f"{x} is not p-integral at p = {p}")
    m = p * p
    return x.numerator * pow(x.denominator % m, -1, m) % m


def sqrt_mod_p2(a: int, p: int):
    """Both square roots of a unit a mod p^2 (Hensel lift), or None."""
    if a % p == 0:
        raise ValueError("square roots here are for units only")
    r0 = next((x for x in range(1, p) if x * x % p == a % p), None)
    if r0 is None:
        return None
    m = p * p
    # Newton step: x <- x - (x^2 - a) / (2x)
    x = (r0 - (r0 * r0 - a) * pow(2 * r0, -1, m)) % m
    return x, m - x


# ---------------------------------------------------------------------------
# ratio tests


def _ratios(den, nums, p: int):
    """(constants, tested numerator indices): per numerator row, the c with
    num_{np} = c den_n mod p^2 (or None) over every n <= len(den)/p with p
    not dividing n and den_n a unit, for rows of residues mod p^2 (column
    n - 1 holding index n); c is read at the first such n.  All-zero
    numerators give the constant 0.  An empty test set is an error, never
    a vacuous success."""
    n = np.arange(1, len(den) // p + 1)
    n = n[(n % p != 0) & (den[n - 1] % p != 0)]
    if not n.size:
        raise InsufficientDataError(
            f"insufficient data: no usable ratio indices for p={p}")
    m, k, d = p * p, n * p, den[n - 1]
    cs = (int(num[k[0] - 1]) * pow(int(d[0]), -1, m) % m for num in nums)
    return tuple(None if ((num[k - 1] - c * d) % m).any() else c
                 for num, c in zip(nums, cs)), k


def solve_alpha_ap(c1: int, c2: int, p: int):
    """(alpha^2, A_p^2, {k: (c1/c2)^k for k = 1..6}) mod p^2 from the cross
    constants."""
    if c2 % p == 0:
        raise ZeroDivisionError("cross constant b_{np}/a_n must be a unit")
    m = p * p
    ratio = c1 * pow(c2, -1, m) % m
    return ratio, c1 * c2 % m, {k: pow(ratio, k, m) for k in range(1, 7)}


# ---------------------------------------------------------------------------
# matching against catalog newform coefficients


class TwistMatch(namedtuple("TwistMatch", (
        "tag",
        "unit",                 # the sixth root of unity u with constant = u * A_p
        "order",
        "modulus_exponent"))):  # 2 normally; 1 when a common p was cancelled
    __slots__ = ()


def _reduce_biquadratic(a: BiquadraticNumber, p: int) -> int | None:
    """A residue representing a mod p^2 (one root choice), or None when the
    needed square root does not exist mod p."""
    nonzero = [i for i in (1, 2, 3) if a.c[i] != 0]
    if not nonzero:
        return reduce_mod_p2(a.c[0], p)
    if len(nonzero) > 1:
        raise ValueError("catalog coefficients live on a single radical")
    i = nonzero[0]
    d = reduce_mod_p2({1: a.d1, 2: a.d2, 3: a.d1 * a.d2}[i], p)
    if d % p == 0:
        return None
    roots = sqrt_mod_p2(d, p)
    if roots is None:
        return None
    return (reduce_mod_p2(a.c[0], p) + reduce_mod_p2(a.c[i], p) * roots[0]) % (p * p)


def _unit_order(u: int, m: int) -> int:
    """The multiplicative order of a sixth root of unity u mod m."""
    return next(k for k in (1, 2, 3, 6) if pow(u, k, m) == 1)


def match_constant(c: int, target: int | None, p: int,
                   tag: str) -> TwistMatch | None:
    """Match c = u * target mod p^2 for a sixth root of unity u, cancelling a
    common factor of p (with the modulus dropping to p) when necessary."""
    if target is None:
        return None
    m = p * p
    vc = 2 if c == 0 else (1 if c % p == 0 else 0)
    vt = 2 if target == 0 else (1 if target % p == 0 else 0)
    if vt >= 2 or vc >= 2:
        if vt >= 2 and vc >= 2:
            return TwistMatch(tag, 1, 1, 2)
        return None
    if vc != vt:
        return None
    if vc == 0:
        u = c * pow(target, -1, m) % m
        if pow(u, 6, m) == 1:
            return TwistMatch(tag, u, _unit_order(u, m), 2)
        return None
    # cancel one p; certify mod p only
    u = (c // p) * pow(target // p % p, -1, p) % p
    if pow(u, 6, p) == 1:
        return TwistMatch(tag, u, _unit_order(u, p), 1)
    return None


def catalog_ap_residue(tag: str, p: int) -> int | None:
    try:
        ap = newform_an(tag, p)
    except KeyError:
        return None
    return _reduce_biquadratic(ap, p)


def catalog_ap_squared_residue(tag: str, p: int) -> int | None:
    try:
        ap = newform_an(tag, p)
    except KeyError:
        return None
    sq = ap * ap
    return reduce_mod_p2(sq.rational_value(), p)


# ---------------------------------------------------------------------------
# the three-term check


class ThreeTermReport:
    __slots__ = ("p", "n_bound", "rows", "failures")

    def __init__(self, p: int, n_bound: int, rows: list, failures: list):
        self.p, self.n_bound = p, n_bound
        self.rows = rows            # (n, required_valuation, certified, ok)
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


def aswd_three_term_check(coeffs: dict[int, Fraction], ap, chi_p: int, p: int,
                          n_bound: int) -> ThreeTermReport:
    """v_p(a_{np} - A_p a_n + chi(p) p^2 a_{n/p}) >= 2(1 + ord_p(n)) for all
    n <= n_bound (a_{n/p} = 0 when p does not divide n), on exact
    coefficients and an exact A_p."""
    report = ThreeTermReport(p, n_bound, [], [])
    for n in range(1, n_bound + 1):
        if n * p not in coeffs:
            raise InsufficientDataError(
                f"insufficient precision: need coefficient {n * p}")
        need = 2 * (1 + padic_valuation(n, p))
        tail = Fraction(chi_p * p * p) * coeffs[n // p] if n % p == 0 else Fraction(0)
        lhs = coeffs[n * p] - Fraction(ap) * coeffs[n] + tail
        ok = padic_valuation(lhs, p) >= need
        report.rows.append((n, need, "exact", ok))
        if not ok:
            report.failures.append(n)
    return report


def _three_term_mod_p2(values, c: int, p: int, n_bound: int) -> ThreeTermReport:
    """The three-term rows of a residue row mod p^2 (column n - 1 holding
    a_n) against the constant c, each certified mod p^2 only: there the
    tail chi(p) p^2 a_{n/p} vanishes, so a row tests a_{np} = c a_n."""
    oks = ((values[p - 1:n_bound * p:p] - c * values[:n_bound]) % (p * p) == 0).tolist()
    rows = [(n, 2 * (1 + padic_valuation(n, p)), "mod p^2", ok)
            for n, ok in enumerate(oks, 1)]
    return ThreeTermReport(p, n_bound, rows, [n for n, *_, ok in rows if not ok])


# ---------------------------------------------------------------------------
# basis detection


class CongruenceReport:
    __slots__ = ("group", "p", "case_kind", "constants", "alpha_squared",
                 "ap_squared", "alpha_power_pattern", "matches", "three_term", "notes")

    def __init__(self, group: str, p: int, case_kind: str):
        self.group, self.p = group, p
        self.case_kind = case_kind                  # case1 | case2 | indeterminate
        self.constants: dict[str, int] = {}
        self.alpha_squared: int | None = None
        self.ap_squared: int | None = None
        self.alpha_power_pattern: dict[int, int] = {}
        self.matches: dict[str, TwistMatch | None] = {}
        self.three_term: dict[str, ThreeTermReport] = {}
        self.notes: list[str] = []

    @property
    def row(self) -> tuple:
        """(case_kind, c1, c2), the constants in the order the case prints
        them; an indeterminate report has none."""
        return (self.case_kind, *(self.constants.values() or (None, None)))

    def to_json(self) -> str:
        import json     # only JSON output loads the module
        def enc(m: TwistMatch | None):
            if m is None:
                return None
            return dict(tag=m.tag, u=m.unit, order=m.order,
                        modulus=f"p^{m.modulus_exponent}")
        return json.dumps(dict(
            group=self.group, p=self.p, caseKind=self.case_kind,
            constants=self.constants, alphaSquared=self.alpha_squared,
            ApSquared=self.ap_squared,
            alphaPowerPattern=self.alpha_power_pattern,
            newformMatch={k: enc(m) for k, m in self.matches.items()},
            threeTerm={k: [(n, need, kind, ok) for n, need, kind, ok in r.rows]
                       for k, r in self.three_term.items()},
            notes=self.notes), indent=None, sort_keys=True)


def detect_basis(group: GroupRecord, p: int, bound: int = 500,
                 three_term_n_bound: int | None = None,
                 rows=None) -> CongruenceReport:
    """Label p case 1 (a_{np}/a_n and b_{np}/b_n constant) or case 2
    (a_{np}/b_n and b_{np}/a_n constant) and attach catalog newform matches
    up to a sixth root of unity.  The tests run on the printed coefficients
    mod p^2 for pn <= bound, two ratios per denominator form.

    ``rows`` is the pair (a, b) of residue rows mod p^2 of both forms,
    column n - 1 holding a_n, n = 1..bound; by default the batch of p
    alone is built.  ``detect_bases`` hands each prime of a run its rows
    of its block's batch.

    A test is live when some tested index np lies on the lattice of
    exponents of the numerator form (``residues.lattice_indices``); a test
    whose every tested numerator is zero by construction is vacuous, and
    such a vacuous case-1 verdict yields to a live cross-ratio verdict.
    For every input ``noncong aswd`` accepts (p <= 2003, pn <= 10^4) this
    equals asking whether some tested numerator is the exact rational
    nonzero: off the lattice a coefficient is exactly 0, and the first
    tested index on the lattice was found nonzero (mod p^2 or mod 65521)
    for all nine groups, every such p and all four tests.  Past that range
    "zero by construction" is the definition.

    With ``three_term_n_bound`` set, a case-1 verdict also carries the
    three-term rows of both forms against the detected constants, mod p^2.
    """
    a, b = rows if rows is not None else \
        (r[0] for r in coefficient_residues(group, bound, (p * p,)))

    def live(which, tested):
        return bool((lattice_indices(group, which, tested) >= 0).any())

    rep = CongruenceReport(group.name, p, "indeterminate")
    (ca, c2), a_tested = _ratios(a, (a, b), p)
    (c1, cb), b_tested = _ratios(b, (a, b), p)
    case1 = ca is not None and cb is not None
    case2 = c1 is not None and c2 is not None
    # a vacuous case 1 yields to a live case 2: a_{np}/b_n runs over b's n
    if case1 and not (live("a", a_tested) or live("b", b_tested)):
        case1 = not (case2 and live("a", b_tested))
    if case1:
        _fill_case1(rep, group, ca, cb)
        if three_term_n_bound:
            nb = min(three_term_n_bound, bound // p)
            rep.three_term = {"a": _three_term_mod_p2(a, ca, p, nb),
                              "b": _three_term_mod_p2(b, cb, p, nb)}
        return rep
    if case2:
        return _fill_case2(rep, group, c1, c2)
    return rep


# Primes per residue batch; a run holds one batch at a time.  Blocks of 4, 8
# and 23 take 0.036, 0.033 and 0.028 s in aswd gamma_24.6.1^6 --pmax 97
# --pn-bound 1000 (23 primes), peaking at 32.6, 33.2 and 35.0 MiB (BENCH_33.json);
# a block's FFT temporaries, 14 MB at 8 primes and pn-bound 10^4, grow with it.
ROW_BLOCK = 8


def detect_bases(group: GroupRecord, primes, bound: int = 500,
                 three_term_n_bound: int | None = None) -> list[CongruenceReport]:
    """``detect_basis`` for every prime of a run, in order, ROW_BLOCK primes
    at a time, each on its rows of its block's batch."""
    primes, reports = tuple(primes), []
    for r in range(0, len(primes), ROW_BLOCK):
        block = primes[r:r + ROW_BLOCK]
        a, b = coefficient_residues(group, bound, tuple(p * p for p in block))
        reports += [detect_basis(group, p, bound, three_term_n_bound, rows)
                    for p, *rows in zip(block, a, b)]
        del a, b                # the block goes before the next is built
    return reports


def _fill_case1(rep: CongruenceReport, group: GroupRecord,
                ca: int, cb: int) -> CongruenceReport:
    tag, p = group.newform, rep.p
    rep.case_kind = "case1"
    rep.constants = {"a": ca, "b": cb}
    target = catalog_ap_residue(tag, p)
    if target is None:
        rep.notes.append("derived from noncongruence coefficients: "
                         "catalog A_p unknown or irrational mod p^2")
    rep.matches = {"a": match_constant(ca, target, p, tag),
                   "b": match_constant(cb, target, p, tag)}
    return rep


def _fill_case2(rep: CongruenceReport, group: GroupRecord,
                c1: int, c2: int) -> CongruenceReport:
    tag, p = group.newform, rep.p
    rep.case_kind = "case2"
    rep.constants = {"ab": c1, "ba": c2}
    target = catalog_ap_squared_residue(tag, p)
    if c2 % p:
        rep.alpha_squared, rep.ap_squared, rep.alpha_power_pattern = \
            solve_alpha_ap(c1, c2, p)
        if target is None:
            rep.notes.append("derived from noncongruence coefficients: "
                             "catalog A_p unknown")
        rep.matches = {"ap_squared": match_constant(rep.ap_squared, target, p, tag)}
    else:
        rep.matches = {"ap_squared": match_constant(c1 * c2 % (p * p), target, p, tag)}
        rep.notes.append("cross constants vanish mod p; alpha not solvable")
    return rep
