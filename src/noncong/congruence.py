"""Mod-p^2 verification of the three-term congruences.

Coefficient ratios a_{np}/a_n (and the cross ratios a_{np}/b_n, b_{np}/a_n)
are tested for constancy mod p^2 over n with p not dividing n and np below a
bound; a constant pair pins down the basis kind and, for the cross case,
alpha^2 and A_p^2.  Detected constants are matched against the catalog
newform coefficients up to a sixth root of unity, dropping to modulus p when
a common factor of p must be cancelled first.

``detect_basis`` works on the basis coefficients mod p^2 only
(``catalog.coefficient_residues``); no exact series is built.  The one
question residues cannot settle alone -- whether every tested numerator is
exactly zero -- is answered by a second residue mod AUX_PRIME, by the lattice
of exponents the form can carry, and only then by the exact sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .catalog import (GROUPS, BiquadraticNumber, GroupRecord, NEWFORMS,
                      character_value, coefficient_residues,
                      coefficient_sequence, lattice_indices, newform_an)


# a second modulus for deciding whether a coefficient is exactly zero
AUX_PRIME = 1000003


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


@dataclass(frozen=True)
class ResidueModP2:
    """Element of Z/p^2, with division restricted to units."""

    p: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % (self.p * self.p))

    @property
    def modulus(self) -> int:
        return self.p * self.p

    @property
    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def _wrap(self, v: int) -> "ResidueModP2":
        return ResidueModP2(self.p, v % self.modulus)

    def __add__(self, other):
        o = other.value if isinstance(other, ResidueModP2) else other
        return self._wrap(self.value + o)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.value)

    def __sub__(self, other):
        o = other.value if isinstance(other, ResidueModP2) else other
        return self._wrap(self.value - o)

    def __mul__(self, other):
        o = other.value if isinstance(other, ResidueModP2) else other
        return self._wrap(self.value * o)

    __rmul__ = __mul__

    def inverse(self) -> "ResidueModP2":
        if not self.is_unit:
            raise ZeroDivisionError(f"{self.value} is not a unit mod {self.p}^2")
        return self._wrap(pow(self.value, -1, self.modulus))

    def __truediv__(self, other):
        if not isinstance(other, ResidueModP2):
            other = ResidueModP2(self.p, other)
        return self * other.inverse()

    def __pow__(self, k: int):
        return self._wrap(pow(self.value, k, self.modulus))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        return self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"{self.value} (mod {self.p}^2)"

    def order(self) -> int:
        """Multiplicative order (units only)."""
        if not self.is_unit:
            raise ZeroDivisionError("order of a non-unit")
        k, acc = 1, self.value
        while acc != 1:
            acc = acc * self.value % self.modulus
            k += 1
        return k


def reduce_mod_p2(x, p: int) -> ResidueModP2:
    """x = num/den as a residue mod p^2; den must be a unit mod p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegralError(f"{x} is not p-integral at p = {p}")
    m = p * p
    return ResidueModP2(p, x.numerator * pow(x.denominator % m, -1, m) % m)


# ---------------------------------------------------------------------------
# roots mod p^2


def sqrt_mod_p2(a: ResidueModP2):
    """Both square roots of a unit mod p^2 (Hensel lift), or None."""
    p, m = a.p, a.modulus
    if not a.is_unit:
        raise ValueError("square roots here are for units only")
    r0 = None
    for x in range(1, p):
        if x * x % p == a.value % p:
            r0 = x
            break
    if r0 is None:
        return None
    # Newton step: x <- x - (x^2 - a) / (2x)
    x = (r0 - (r0 * r0 - a.value) * pow(2 * r0, -1, m)) % m
    return (ResidueModP2(p, x), ResidueModP2(p, m - x))


def cbrt_mod_p2(a: ResidueModP2) -> ResidueModP2:
    """The unique cube root mod p^2 for p = 2 mod 3 (cubing is a bijection)."""
    p = a.p
    if p % 3 != 2:
        raise ValueError("cube root not unique: need p = 2 mod 3")
    if not a.is_unit:
        raise ValueError("cube roots here are for units only")
    e = pow(3, -1, p * (p - 1))
    return ResidueModP2(p, pow(a.value, e, p * p))


def sixth_roots_mod_p2(p: int) -> list[ResidueModP2]:
    """All x with x^6 = 1 mod p^2 (Hensel-lifted from the roots mod p)."""
    m = p * p
    out = []
    for r in range(1, p):
        if pow(r, 6, p) == 1:
            # lift: x <- x - (x^6 - 1)/(6 x^5)
            x = (r - (pow(r, 6, m) - 1) * pow(6 * pow(r, 5, m), -1, m)) % m
            out.append(ResidueModP2(p, x))
    return sorted(out, key=lambda r: r.value)


def primitive_cube_roots_mod_p2(p: int) -> list[ResidueModP2]:
    """The omega with omega^2 + omega + 1 = 0 mod p^2 (p = 1 mod 3 only)."""
    return [r for r in sixth_roots_mod_p2(p) if r.order() == 3]


# ---------------------------------------------------------------------------
# ratio tests


def _test_indices(num: dict[int, int], den: dict[int, int], p: int,
                  bound: int) -> list[int]:
    """n prime to p with np <= bound, a numerator at np and a unit den_n."""
    return [n for n in sorted(den)
            if n % p and n * p <= bound and n * p in num and den[n] % p]


def _constancy(num: dict[int, int], den: dict[int, int], p: int, bound: int):
    """(constant or None, tested numerator indices): the constant of
    num_{np}/den_n mod p^2 over the test set, for sequences of residues
    mod p^2.  An empty test set is an error, never a vacuous success."""
    test = _test_indices(num, den, p, bound)
    if not test:
        raise InsufficientDataError(
            f"insufficient data: no usable ratio indices for p={p}")
    m = p * p
    const = None
    for n in test:
        v = num[n * p] * pow(den[n], -1, m) % m
        if const is None:
            const = v
        elif v != const:
            return None, None
    return ResidueModP2(p, const), [n * p for n in test]


def _reduced(seq: dict[int, Fraction], p: int) -> dict[int, int]:
    return {n: reduce_mod_p2(x, p).value for n, x in seq.items()}


def ratio_constancy(seq: dict[int, Fraction], p: int, bound: int):
    """The constant a_{np}/a_n mod p^2 over the unit test set, or None.

    All-zero numerators report the constant 0.  Every entry of ``seq`` must
    be p-integral.
    """
    r = _reduced(seq, p)
    return _constancy(r, r, p, bound)[0]


def cross_ratio_constancy(aseq: dict[int, Fraction], bseq: dict[int, Fraction],
                          p: int, bound: int):
    """(a_{np}/b_n, b_{np}/a_n) when both are constant mod p^2, else None."""
    ra, rb = _reduced(aseq, p), _reduced(bseq, p)
    c1 = _constancy(ra, rb, p, bound)[0]
    if c1 is None:
        return None
    c2 = _constancy(rb, ra, p, bound)[0]
    if c2 is None:
        return None
    return c1, c2


@lru_cache(maxsize=None)
def _aux_residues(name: str, which: str, bound: int) -> dict[int, int]:
    return coefficient_residues(GROUPS[name], which, bound, AUX_PRIME)


class _BasisForm:
    """One basis form's printed coefficients mod p^2, with a sound test of
    whether coefficients vanish over Q."""

    def __init__(self, group: GroupRecord, which: str, p: int, bound: int):
        self.group, self.which, self.bound = group, which, bound
        self.values = coefficient_residues(group, which, bound, p * p)

    def any_nonzero(self, indices: list[int]) -> bool:
        """Whether a_n != 0 for some n in indices.  A nonzero residue mod p^2
        or mod AUX_PRIME proves it; an index off the lattice of the form's
        exponents is zero by construction; anything else is read from the
        exact sequence."""
        if any(self.values[n] for n in indices):
            return True
        aux = _aux_residues(self.group.name, self.which, self.bound)
        if any(aux[n] for n in indices):
            return True
        lattice = lattice_indices(self.group, self.which, self.bound)
        open_ = [n for n in indices if lattice[n - 1] is not None]
        if not open_:
            return False
        exact = coefficient_sequence(self.group, self.which, self.bound)
        return any(exact[n] != 0 for n in open_)


def solve_alpha_ap(c1: ResidueModP2, c2: ResidueModP2):
    """(alpha^2, A_p^2, {k: (c1/c2)^k for k = 1..6}) from the cross constants."""
    if not c2.is_unit:
        raise ZeroDivisionError("cross constant b_{np}/a_n must be a unit")
    ratio = c1 / c2
    alpha_sq = ratio
    ap_sq = c1 * c2
    pattern = {k: ratio ** k for k in range(1, 7)}
    return alpha_sq, ap_sq, pattern


# ---------------------------------------------------------------------------
# matching against catalog newform coefficients


@dataclass(frozen=True)
class TwistMatch:
    tag: str
    unit: int          # the sixth root of unity u with constant = u * A_p
    order: int
    modulus_exponent: int   # 2 normally; 1 when a common p was cancelled


def _reduce_biquadratic(a: BiquadraticNumber, p: int):
    """A residue representing a mod p^2 (one root choice), or None when the
    needed square root does not exist mod p."""
    nonzero = [i for i in (1, 2, 3) if a.c[i] != 0]
    if not nonzero:
        return reduce_mod_p2(a.c[0], p)
    if len(nonzero) > 1:
        raise ValueError("catalog coefficients live on a single radical")
    i = nonzero[0]
    d = {1: a.d1, 2: a.d2, 3: a.d1 * a.d2}[i]
    dmodp = reduce_mod_p2(d, p)
    if not dmodp.is_unit:
        return None
    roots = sqrt_mod_p2(dmodp)
    if roots is None:
        return None
    return reduce_mod_p2(a.c[0], p) + reduce_mod_p2(a.c[i], p) * roots[0]


def match_constant(c: ResidueModP2, target: ResidueModP2 | None,
                   tag: str) -> TwistMatch | None:
    """Match c = u * target mod p^2 for a sixth root of unity u, cancelling a
    common factor of p (with the modulus dropping to p) when necessary."""
    if target is None:
        return None
    p = c.p
    m = p * p
    vc = 2 if c.value == 0 else (1 if c.value % p == 0 else 0)
    vt = 2 if target.value == 0 else (1 if target.value % p == 0 else 0)
    if vt >= 2 or vc >= 2:
        if vt >= 2 and vc >= 2:
            return TwistMatch(tag, 1, 1, 2)
        return None
    if vc != vt:
        return None
    if vc == 0:
        u = c.value * pow(target.value, -1, m) % m
        if pow(u, 6, m) == 1:
            return TwistMatch(tag, u, ResidueModP2(p, u).order(), 2)
        return None
    # cancel one p; certify mod p only
    u = (c.value // p) * pow(target.value // p % p, -1, p) % p
    if pow(u, 6, p) == 1:
        order = next(k for k in (1, 2, 3, 6) if pow(u, k, p) == 1)
        return TwistMatch(tag, u, order, 1)
    return None


def catalog_ap_residue(tag: str, p: int) -> ResidueModP2 | None:
    try:
        ap = newform_an(tag, p)
    except KeyError:
        return None
    return _reduce_biquadratic(ap, p)


def catalog_ap_squared_residue(tag: str, p: int) -> ResidueModP2 | None:
    try:
        ap = newform_an(tag, p)
    except KeyError:
        return None
    sq = ap * ap
    return reduce_mod_p2(sq.rational_value(), p)


# ---------------------------------------------------------------------------
# the three-term check


@dataclass
class ThreeTermReport:
    p: int
    n_bound: int
    rows: list          # (n, required_valuation, certified, ok)
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def aswd_three_term_check(coeffs: dict[int, Fraction], ap, chi_p: int, p: int,
                          n_bound: int) -> ThreeTermReport:
    """v_p(a_{np} - A_p a_n + chi(p) p^2 a_{n/p}) >= 2(1 + ord_p(n)) for all
    n <= n_bound (a_{n/p} = 0 when p does not divide n).

    ``ap`` may be an exact integer/Fraction (full p-adic check) or a
    ResidueModP2 (rows with p | n are then certified mod p^2 only); with a
    ResidueModP2, ``coeffs`` may hold residues mod p^2 in place of rationals.
    """
    exact = not isinstance(ap, ResidueModP2)
    report = ThreeTermReport(p, n_bound, [], [])
    for n in range(1, n_bound + 1):
        if n * p not in coeffs:
            raise InsufficientDataError(
                f"insufficient precision: need coefficient {n * p}")
        need = 2 * (1 + padic_valuation(n, p))
        tail = Fraction(chi_p * p * p) * coeffs[n // p] if n % p == 0 else Fraction(0)
        if exact:
            lhs = coeffs[n * p] - Fraction(ap) * coeffs[n] + tail
            got = padic_valuation(lhs, p)
            ok = got >= need
            report.rows.append((n, need, "exact", ok))
        else:
            lhs = (reduce_mod_p2(coeffs[n * p], p) - ap * reduce_mod_p2(coeffs[n], p)
                   + reduce_mod_p2(tail, p))
            certified = min(need, 2)
            ok = lhs.value % p ** certified == 0
            report.rows.append((n, need, f"mod p^{certified}", ok))
        if not ok:
            report.failures.append(n)
    return report


# ---------------------------------------------------------------------------
# basis detection


@dataclass
class CongruenceReport:
    group: str
    p: int
    case_kind: str                              # case1 | case2 | indeterminate
    constants: dict[str, int] = field(default_factory=dict)
    alpha_squared: int | None = None
    ap_squared: int | None = None
    alpha_power_pattern: dict[int, int] = field(default_factory=dict)
    matches: dict[str, TwistMatch | None] = field(default_factory=dict)
    three_term: dict[str, ThreeTermReport] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
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
                 three_term_n_bound: int | None = None) -> CongruenceReport:
    """Run the case-1 ratio test on both forms; fall back to the case-2 cross
    ratios; attach catalog newform matches up to a sixth root of unity.
    The tests run on the printed coefficients mod p^2 for pn <= bound.

    A constant whose every tested numerator is the exact rational zero is a
    support artifact (the form has no coefficients at those indices at all);
    such a vacuous case-1 verdict yields to a live cross-ratio verdict.

    With ``three_term_n_bound`` set, a case-1 verdict also carries the full
    three-term checks of both forms against the detected constants.
    """
    a = _BasisForm(group, "a", p, bound)
    b = _BasisForm(group, "b", p, bound)
    rep = CongruenceReport(group.name, p, "indeterminate")
    ca, a_tested = _constancy(a.values, a.values, p, bound)
    cb, b_tested = _constancy(b.values, b.values, p, bound)
    case1 = ca is not None and cb is not None
    c1 = c2 = None
    if not (case1 and (a.any_nonzero(a_tested) or b.any_nonzero(b_tested))):
        c1, x_tested = _constancy(a.values, b.values, p, bound)
        c2 = _constancy(b.values, a.values, p, bound)[0] if c1 is not None else None
        if c1 is not None and c2 is not None and a.any_nonzero(x_tested):
            return _fill_case2(rep, group, c1, c2)
    if case1:
        _fill_case1(rep, group, ca, cb)
        if three_term_n_bound:
            chi = character_value(NEWFORMS[group.newform].character, p)
            nb = min(three_term_n_bound, bound // p)
            rep.three_term = {
                "a": aswd_three_term_check(a.values, ca, chi, p, nb),
                "b": aswd_three_term_check(b.values, cb, chi, p, nb),
            }
        return rep
    if c1 is not None and c2 is not None:
        return _fill_case2(rep, group, c1, c2)
    return rep


def _fill_case1(rep: CongruenceReport, group: GroupRecord,
                ca: ResidueModP2, cb: ResidueModP2) -> CongruenceReport:
    tag = group.newform
    rep.case_kind = "case1"
    rep.constants = {"a": ca.value, "b": cb.value}
    target = catalog_ap_residue(tag, rep.p)
    if target is None:
        rep.notes.append("derived from noncongruence coefficients: "
                         "catalog A_p unknown or irrational mod p^2")
    rep.matches = {"a": match_constant(ca, target, tag),
                   "b": match_constant(cb, target, tag)}
    return rep


def _fill_case2(rep: CongruenceReport, group: GroupRecord,
                c1: ResidueModP2, c2: ResidueModP2) -> CongruenceReport:
    tag = group.newform
    rep.case_kind = "case2"
    rep.constants = {"ab": c1.value, "ba": c2.value}
    if c2.is_unit:
        alpha_sq, ap_sq, pattern = solve_alpha_ap(c1, c2)
        rep.alpha_squared = alpha_sq.value
        rep.ap_squared = ap_sq.value
        rep.alpha_power_pattern = {k: v.value for k, v in pattern.items()}
        target = catalog_ap_squared_residue(tag, rep.p)
        if target is None:
            rep.notes.append("derived from noncongruence coefficients: "
                             "catalog A_p unknown")
        rep.matches = {"ap_squared": match_constant(ap_sq, target, tag)}
    else:
        target = catalog_ap_squared_residue(tag, rep.p)
        rep.matches = {"ap_squared": match_constant(c1 * c2, target, tag)}
        rep.notes.append("cross constants vanish mod p; alpha not solvable")
    return rep
