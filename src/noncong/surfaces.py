"""Rational functions over Q, the Weierstrass families over the two genus-0
base curves, short-model conversion, j-invariants, isogeny relations (one
``IsogenyRelation`` record each), the covering data of the catalog groups
(``COVERINGS``: one Mobius covering map each, the self relation of the base
involution, its lift, the surfaces' cube twists), involution identities and
modular-polynomial checks of the relations.

Polynomials are dense coefficient tuples (low degree first) with rational
entries, multiplied by the series layer's one exact product; rational
functions hold Fractions and keep a monic denominator coprime to the
numerator.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction

from .series import _rational_convolve

ENV_MODPOLY_PATH = "NONCONG_MODPOLY_PATH"


class MissingPolynomialData(LookupError):
    """A modular polynomial that is not built in was requested, and no
    usable data file holds it."""


# ---------------------------------------------------------------------------
# dense polynomial helpers


def _trim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    return _trim(_rational_convolve(a, b, len(a) + len(b) - 1))


def _pscale(a, c):
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(c * x for x in a)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        f = a[-1] * inv
        q[k] = f
        for i, bi in enumerate(b):
            a[k + i] -= f * bi
        a.pop()
    return _trim(q), _trim(a)


def _pgcd(a, b):
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, Fraction(1) / a[-1])  # monic


def _power_table(num, den, n):
    """num^i den^(n-i) for i = 0..n: the terms of any polynomial of degree
    at most n at num/den, cleared by den^n."""
    num_pows = [(Fraction(1),)]
    den_pows = [(Fraction(1),)]
    for _ in range(n):
        num_pows.append(_pmul(num_pows[-1], num))
        den_pows.append(_pmul(den_pows[-1], den))
    return [_pmul(num_pows[i], den_pows[n - i]) for i in range(n + 1)]


def _pcompose(p, powers):
    """p(num/den) den^n, from powers = _power_table(num, den, n), n >= deg p."""
    acc = ()
    for c, term in zip(p, powers):
        if c:
            acc = _padd(acc, _pscale(term, c))
    return acc


def polynomial_resultant(a, b) -> Fraction:
    """Resultant via the Euclidean algorithm (exact over Q)."""
    a, b = _trim(list(Fraction(x) for x in a)), _trim(list(Fraction(x) for x in b))
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        _, r = _pdivmod(a, b)
        if not r:
            return Fraction(0)
        dr = len(r) - 1
        res *= Fraction(-1) ** (da * db) * b[-1] ** (da - dr)
        a, b = b, r


class RationalFunction:
    """Element of Q(t): numerator/denominator, denominator monic, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = _trim([c if type(c) is Fraction else Fraction(c) for c in num])
        den = _trim([c if type(c) is Fraction else Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (Fraction(1),))
            return
        if len(num) > 1 and len(den) > 1:   # a constant is prime to any polynomial
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = _pscale(num, Fraction(1) / lead)
            den = _pscale(den, Fraction(1) / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls((Fraction(c),))

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def degree(self) -> int:
        """max(deg num, deg den) — the degree of the map P^1 -> P^1."""
        return max(len(self.num) - 1, len(self.den) - 1)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        def side(p):
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c:
                    if i == 0:
                        parts.append(f"{c}")
                    elif i == 1:
                        parts.append(f"{c}*t" if c != 1 else "t")
                    else:
                        parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(parts)
        if self.den == (Fraction(1),):
            return f"({side(self.num)})"
        return f"({side(self.num)}) / ({side(self.den)})"

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (RationalFunction((Fraction(1),)) / self) ** (-e)
        out = RationalFunction((Fraction(1),))
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(t)), exact in Q(t): N(A/B) / D(A/B) with numerator and
        denominator both cleared by B^degree, from one power table."""
        if self.is_zero:
            return RationalFunction(())
        powers = _power_table(inner.num, inner.den, self.degree())
        return RationalFunction(_pcompose(self.num, powers), _pcompose(self.den, powers))


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    return NotImplemented


T = RationalFunction.variable()


def rf(num_coeffs, den_coeffs=(1,)) -> RationalFunction:
    return RationalFunction(tuple(Fraction(c) for c in num_coeffs),
                            tuple(Fraction(c) for c in den_coeffs))


# ---------------------------------------------------------------------------
# Weierstrass families


class WeierstrassFamily(namedtuple("WeierstrassFamily", "label a1 a2 a3 a4 a6")):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(t), each a_i a
    RationalFunction."""
    __slots__ = ()


class ShortWeierstrass(namedtuple("ShortWeierstrass", "A B")):
    """y^2 = x^3 + A x + B, A and B RationalFunctions."""
    __slots__ = ()

    def discriminant(self) -> RationalFunction:
        return (RationalFunction.const(4) * self.A ** 3
                + RationalFunction.const(27) * self.B ** 2) * RationalFunction.const(-16)


def long_to_short(fam: WeierstrassFamily, scale=Fraction(1)) -> ShortWeierstrass:
    """Standard b2/b4/b6 -> c4/c6 completion of the square and cube, then
    (A, B) = (-27 c4 / u^4, -54 c6 / u^6) for the chosen scale u."""
    u = Fraction(scale)
    if u == 0:
        raise ValueError("scale must be nonzero")
    b2 = fam.a1 ** 2 + 4 * fam.a2
    b4 = 2 * fam.a4 + fam.a1 * fam.a3
    b6 = fam.a3 ** 2 + 4 * fam.a6
    c4 = b2 ** 2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    A = c4 * Fraction(-27) / u ** 4
    B = c6 * Fraction(-54) / u ** 6
    sw = ShortWeierstrass(A, B)
    if sw.discriminant().is_zero:
        raise ValueError("family has identically zero discriminant")
    return sw


def j_invariant(sw: ShortWeierstrass) -> RationalFunction:
    """j = -1728 (4A)^3 / Delta with Delta = -16(4A^3 + 27B^2)."""
    delta = sw.discriminant()
    if delta.is_zero:
        raise ValueError("identically zero discriminant")
    return RationalFunction.const(-1728 * 64) * sw.A ** 3 / delta


def substitute_parameter(sw: ShortWeierstrass, sub: RationalFunction) -> ShortWeierstrass:
    """Replace the base parameter t by sub(r)."""
    if sub.is_constant:
        raise ValueError("substitution must be nonconstant")
    return ShortWeierstrass(sw.A.compose(sub), sw.B.compose(sub))


# The two families the triple covers live over, plus the other four genus-0
# index-12 fibrations, each with its j-invariant for cross checks.  `j_column`
# builds the classical j column when called: only the cross checks read it,
# and its products would cost most of this module's import.  `j_factor`
# reconciles the column with the j of the Weierstrass data (the level-4
# column is short by 2^8).  The level-3 a6 is the one forced by the
# Hesse pencil x^3 + y^3 + z^3 = t*x*y*z in the same row.

BEAUVILLE: dict[str, dict] = {
    "E3": dict(
        family=WeierstrassFamily("E3", rf([0]), rf([0, 0, 1]), rf([0]),
                                 rf([0, -72]), rf([-432, 0, 0, -64])),
        scale=Fraction(1),
        j_column=lambda: (rf([0, 0, 0, 1]) * rf([216, 0, 0, 1]) ** 3
                          / rf([-27, 0, 0, 1]) ** 3),
        j_factor=Fraction(1),
    ),
    "E4": dict(
        family=WeierstrassFamily("E4", rf([0]), rf([4, 0, 4]), rf([0]),
                                 rf([0, 0, 16]), rf([0])),
        scale=Fraction(1),
        j_column=lambda: (rf([1, 0, -1, 0, 1]) ** 3
                          / (rf([0, 0, 0, 0, 1]) * rf([-1, 1]) ** 2 * rf([1, 1]) ** 2)),
        j_factor=Fraction(256),
    ),
    "E5": dict(
        family=WeierstrassFamily("E5", rf([1, 1]), rf([0, 1]), rf([0, 1]),
                                 rf([0]), rf([0])),
        scale=Fraction(1),
        j_column=lambda: (rf([1, -12, 14, 12, 1]) ** 3 * Fraction(-1)
                          / (rf([0, 0, 0, 0, 0, 1]) * rf([-1, 11, 1]))),
        j_factor=Fraction(1),
    ),
    "E6": dict(
        family=WeierstrassFamily("E6", rf([1, 1]), rf([0, 1, -1]), rf([0, 1, -1]),
                                 rf([0]), rf([0])),
        scale=Fraction(1, 2),
        j_column=lambda: (rf([-1, 3]) ** 3 * rf([-1, 9, -3, 3]) ** 3
                          / (rf([-1, 1]) ** 3 * rf([0] * 6 + [1]) * rf([-1, 9]))),
        j_factor=Fraction(1),
    ),
    "E8": dict(
        family=WeierstrassFamily("E8", rf([4]), rf([0, 0, 1]), rf([0, 0, 4]),
                                 rf([0]), rf([0])),
        scale=Fraction(2),
        j_column=lambda: (rf([16, 0, -16, 0, 1]) ** 3 * Fraction(-16)
                          / (rf([0] * 8 + [1]) * rf([1, 1]) * rf([-1, 1]))),
        j_factor=Fraction(1),
    ),
    "E9": dict(
        family=WeierstrassFamily("E9", rf([0]), rf([0, 0, 1]), rf([0]),
                                 rf([0, 8]), rf([16])),
        scale=Fraction(1),
        j_column=lambda: (rf([0, 0, 0, 1]) * rf([-24, 0, 0, 1]) ** 3 / rf([-27, 0, 0, 1])),
        j_factor=Fraction(1),
    ),
}


def beauville_short(level_label: str) -> ShortWeierstrass:
    entry = BEAUVILLE[level_label]
    return long_to_short(entry["family"], entry["scale"])


# ---------------------------------------------------------------------------
# isogeny relations and covering data of the catalog groups


class IsogenyRelation(namedtuple("IsogenyRelation", "level sub_a sub_b d kernel field",
                                 defaults=(None, None))):
    """Phi_d(j(level at sub_a), j(level at sub_b)) = 0 as functions of t.  A
    self relation is the fiberwise isogeny lifting a base involution i(t):
    sub_a = t, sub_b = i(t), with the kernel polynomial (its roots are
    x-coordinates of the kernel) and field of definition the catalog gives,
    both strings or None."""
    __slots__ = ()


_t = T  # the tables write every map in one formal variable

# Self relations, named by level and i(t).
ISOGENY_BY_INVOLUTION: dict[str, IsogenyRelation] = {
    "E8:-t": IsogenyRelation("E8", _t, -_t, 1, "-", "Q"),
    "E8:1/t": IsogenyRelation("E8", _t, 1 / _t, 4, "(x + t^2)*x", "Q"),
    "E8:(1-t)/(1+t)": IsogenyRelation("E8", _t, (1 - _t) / (1 + _t), 8,
                                      "(x^2 - 4*t*x - 4*t^3)*(x + t^2)*x",
                                      "Q(sqrt(-1))"),
    "E8:(t+1)/(t-1)": IsogenyRelation("E8", _t, (_t + 1) / (_t - 1), 8,
                                      "(x^2 + 4*t*x + 4*t^3)*(x + t^2)*x",
                                      "Q(sqrt(-1))"),
    "E6:1/(9t)": IsogenyRelation("E6", _t, 1 / (9 * _t), 3, "x - t^2 + t",
                                 "Q(sqrt(-3))"),
    "E6:(1-9t)/(9-9t)": IsogenyRelation("E6", _t, (1 - 9 * _t) / (9 - 9 * _t), 6,
                                        "(x - t^2 + t)*x*(x + t)", "Q(sqrt(-3))"),
}

# Relations between the covers that pair the trace-table rows.  The d=3 and
# d=6 entries are instances of the self relations: (1-3t)/(9-3t) is the
# degree-6 involution image of t/3, and t/(9t-24) is 1/(9*(1-8/(3t))).
INTER_FAMILY_RELATIONS: dict[str, IsogenyRelation] = {
    "1a": IsogenyRelation("E8", (_t - 1) / (_t + 1), 1 / _t, 8),
    "2a": IsogenyRelation("E8", 4 * _t - 1, 2 / ((1 / _t) - 2), 8),
    "3a": IsogenyRelation("E6", (1 - 3 * _t) / (9 - 3 * _t), _t / 3, 6),
    "4a": IsogenyRelation("E6", 1 - 8 / (3 * _t), 1 / (9 - 24 * (1 / _t)), 3),
}


class Covering(namedtuple("Covering", "m relation iota twists")):
    """How one catalog group's modular curve covers its parent's base curve:
    r^3 = m(t) for the integer Mobius map m = (a, b, c, d), t -> (a t + b) /
    (c t + d).  The self relation of the base involution t -> i(t) (its
    ``sub_b``) lifts to r -> iota(r) = c r^e on the cover, ``iota`` = (c, e).
    Each surface is the parent's family at t = m^-1(k r^3) for a cube twist
    k, ``twists`` = ((label, k), ...)."""
    __slots__ = ()

    @property
    def covering_m(self) -> RationalFunction:
        a, b, c, d = self.m
        return rf([b, a], [d, c])

    @property
    def covering_m_inv(self) -> RationalFunction:
        a, b, c, d = self.m
        return rf([-b, d], [a, -c])

    @property
    def involution_cover(self) -> RationalFunction:
        c, e = self.iota
        return c * T ** e

    def family_maps(self) -> tuple[tuple[str, tuple[int, int, int, int]], ...]:
        """(label, f) for each surface: f(s) = m^-1(k s) = (d n s - b q) /
        (-c n s + a q) for the twist k = n/q."""
        a, b, c, d = self.m
        return tuple((label, (d * k.numerator, -b * k.denominator,
                              -c * k.numerator, a * k.denominator))
                     for label, k in self.twists)


# Keyed by catalog group name; the conjugate variant gamma_24.3.2^3.1^3B
# carries no covering data.
_R = ISOGENY_BY_INVOLUTION
COVERINGS: dict[str, Covering] = {
    "gamma_24.6.1^6": Covering((1, 0, 0, 1), _R["E8:-t"], (-1, 1), (("E8(r^3)", 1),)),
    "gamma_8^3.2^3.3^2": Covering((1, 1, -1, 1), _R["E8:1/t"], (-1, 1),
                                  (("E8((r^3-1)/(r^3+1))", 1),)),
    "gamma_8^3.6.3.1^3": Covering((1, 1, 0, 4), _R["E8:(1-t)/(1+t)"], (Fraction(1, 2), -1),
                                  (("E8(r^3-1)", Fraction(1, 4)),
                                   ("E8(2r^3-1)", Fraction(1, 2)), ("E8(4r^3-1)", 1))),
    "gamma_24.3.2^3.1^3": Covering((2, 2, 1, 0), _R["E8:(t+1)/(t-1)"], (2, -1),
                                   (("E8(2/(r^3-2))", 1),)),
    "gamma_18.6.3^3.1^3": Covering((1, 0, 0, 9), _R["E6:1/(9t)"], (Fraction(1, 9), -1),
                                   (("E6(3r^3)", Fraction(1, 3)), ("E6(9r^3)", 1))),
    "gamma_9.6^3.3.2^3": Covering((-9, 1, -3, 3), _R["E6:1/(9t)"], (1, -1),
                                  (("E6((1-3r^3)/(9-3r^3))", 1),)),
    "gamma_9.6^4.1^3": Covering((0, 8, -3, 3), _R["E6:(1-9t)/(9-9t)"], (2, -1),
                                (("E6(1-24/r^3)", Fraction(1, 9)), ("E6(1-8/(3r^3))", 1))),
    "gamma_18.3^4.2^3": Covering((-9, 1, 24, 0), _R["E6:(1-9t)/(9-9t)"], (Fraction(1, 2), -1),
                                 (("E6(1/(24r^3+9))", 1),)),
}


# ---------------------------------------------------------------------------
# involution identities


def involution_identity_check(group) -> bool:
    """Verify (iota(cbrt(m(t))))^3 == m(i(t)) in Q(t) for a catalog group.

    Every catalog iota is monomial, iota(r) = c*r^e with e = +-1, so the
    cube c^3 m(t)^e lives in Q(t) after substituting r^3 = m(t).
    """
    cover = COVERINGS.get(group.name)
    if cover is None:
        raise ValueError(f"{group.name}: no involution data")
    m, (c, e) = cover.covering_m, cover.iota
    return c ** 3 * m ** e == m.compose(cover.relation.sub_b)


# ---------------------------------------------------------------------------
# modular polynomials


class ModularPolynomial(namedtuple("ModularPolynomial", "d terms")):
    """Symmetric bivariate polynomial Phi_d, its terms (i, j, c) for c x^i y^j."""
    __slots__ = ()

    def __new__(cls, d: int, terms: tuple[tuple[int, int, int], ...]):
        if not terms:
            raise ValueError(f"Phi_{d} data has no nonzero term")
        for i, j, _ in terms:
            if i < 0 or j < 0:
                raise ValueError(f"Phi_{d} data has a negative exponent at {(i, j)}")
        if d > 1:
            tdict = {(i, j): c for i, j, c in terms}
            for (i, j), c in tdict.items():
                if tdict.get((j, i)) != c:
                    raise ValueError(f"Phi_{d} data is not symmetric at {(i, j)}")
        return super().__new__(cls, d, terms)

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace checks too

    @classmethod
    def from_dict(cls, d: int, terms: dict) -> "ModularPolynomial":
        full = {}
        for (i, j), c in terms.items():
            full[(i, j)] = c
            full.setdefault((j, i), c)
        return cls(d, tuple(sorted((i, j, c) for (i, j), c in full.items() if c)))

    def evaluate(self, x, y):
        """Evaluate at Fractions (or anything supporting + and * with ints)."""
        dx = max(i for i, _, _ in self.terms)
        dy = max(j for _, j, _ in self.terms)
        xp = [Fraction(1) if isinstance(x, (int, Fraction)) else x ** 0]
        yp = [Fraction(1) if isinstance(y, (int, Fraction)) else y ** 0]
        for _ in range(dx):
            xp.append(xp[-1] * x)
        for _ in range(dy):
            yp.append(yp[-1] * y)
        total = 0 * xp[0]
        for i, j, c in self.terms:
            total = total + c * xp[i] * yp[j]
        return total

    def evaluate_mod(self, x: int, y: int, mod: int) -> int:
        acc = 0
        for i, j, c in self.terms:
            acc = (acc + c * pow(x, i, mod) * pow(y, j, mod)) % mod
        return acc

    def vanishes_on(self, x: RationalFunction, y: RationalFunction) -> bool:
        """Exact identity Phi(x(t), y(t)) == 0, via the cleared numerator
        sum_i x_i * Phi_i(y), where x_i is the i-th entry of x's power table
        and Phi_i(Y) = sum_j c_ij Y^j, read through y's."""
        dx = max(i for i, _, _ in self.terms)
        dy = max(j for _, j, _ in self.terms)
        rows = [[0] * (dy + 1) for _ in range(dx + 1)]
        for i, j, c in self.terms:
            rows[i][j] = c
        ys = _power_table(y.num, y.den, dy)
        acc = ()
        for xi, row in zip(_power_table(x.num, x.den, dx), rows):
            acc = _padd(acc, _pmul(xi, _pcompose(row, ys)))
        return not acc


PHI1 = ModularPolynomial.from_dict(1, {(1, 0): 1, (0, 1): -1})

PHI2 = ModularPolynomial.from_dict(2, {
    (3, 0): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (2, 0): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 0): -157464000000000,
})

PHI3 = ModularPolynomial.from_dict(3, {
    (4, 0): 1,
    (3, 3): -1,
    (3, 2): 2232,
    (3, 1): -1069956,
    (3, 0): 36864000,
    (2, 2): 2587918086,
    (2, 1): 8900222976000,
    (2, 0): 452984832000000,
    (1, 1): -770845966336000000,
    (1, 0): 1855425871872000000000,
})

_BUILTIN_PHI = {1: PHI1, 2: PHI2, 3: PHI3}


def load_modular_polynomial_file(path: str) -> ModularPolynomial:
    """Plain-text format: first line d, then `i j c` terms (one per line),
    and `#` starts a comment.  Phi_d is symmetric, so a pair listed once
    stands for both (j, i) and (i, j); a line `sym` is accepted and changes
    nothing.  A line that is none of these, or that repeats the (i, j) of an
    earlier line, raises ValueError naming it."""
    terms: dict[tuple[int, int], tuple[int, int]] = {}     # (i, j) -> (c, line)
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.partition("#")[0].strip()
            if not line or (d is not None and line == "sym"):
                continue
            try:
                if d is None:
                    d = int(line)
                    continue
                i, j, c = map(int, line.split())
            except ValueError:
                want = "the degree d" if d is None else "a term 'i j c'"
                raise ValueError(f"line {number}: {line!r} is not {want}") from None
            if (i, j) in terms:
                raise ValueError(f"line {number}: {line!r} repeats the term ({i}, {j}) "
                                 f"of line {terms[i, j][1]}")
            terms[i, j] = c, number
    if d is None:
        raise ValueError("no degree line: the file holds no data")
    return ModularPolynomial.from_dict(d, {k: c for k, (c, _) in terms.items()})


def modular_polynomial(d: int, path: str | None = None) -> ModularPolynomial:
    """Phi_d: built in for d <= 3, otherwise read from `path` or the file
    named by the NONCONG_MODPOLY_PATH environment variable.  A missing,
    unreadable or malformed file, or one holding another Phi, raises
    MissingPolynomialData naming the file."""
    if d in _BUILTIN_PHI:
        return _BUILTIN_PHI[d]
    path = path or os.environ.get(ENV_MODPOLY_PATH)
    if not path:
        raise MissingPolynomialData(
            f"polynomial data required: Phi_{d} is not built in; supply a data file")
    try:
        mp = load_modular_polynomial_file(path)
    except OSError as e:
        reason = e.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except ValueError as e:
        reason = str(e)
    else:
        if mp.d == d:
            return mp
        reason = f"it holds Phi_{mp.d}, not Phi_{d}"
    raise MissingPolynomialData(f"polynomial data file {path}: {reason}")


# ---------------------------------------------------------------------------
# isogeny relation checks


def relation_j_pair(rel: IsogenyRelation) -> tuple[RationalFunction, RationalFunction]:
    """j of the relation's level composed with each of its two maps."""
    j = j_invariant(beauville_short(rel.level))
    return j.compose(rel.sub_a), j.compose(rel.sub_b)


def isogeny_relation_check(rel: IsogenyRelation, mode: str = "sampled",
                           primes=(101, 103), samples: int = 50,
                           modpoly_path: str | None = None) -> bool:
    """Check Phi_d(j1(t), j2(t)) = 0 for a relation, symbolically in Q(t) or
    sampled over F_p at the first `samples` non-pole points t = 1, 2, ... of
    each prime; a prime with fewer is refused with ValueError.  Phi_d is
    fetched before any algebra in Q(t)."""
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, not {samples}")
    if mode not in ("symbolic", "sampled"):
        raise ValueError("mode must be 'symbolic' or 'sampled'")
    phi = modular_polynomial(rel.d, modpoly_path)
    ja, jb = relation_j_pair(rel)
    if mode == "symbolic":
        return phi.vanishes_on(ja, jb)
    for p in primes:
        tested = 0
        for t0 in range(1, p):
            try:
                xa, xb = _eval_mod(ja, t0, p), _eval_mod(jb, t0, p)
            except (ZeroDivisionError, ValueError):     # a pole, or p | a denominator
                continue
            if phi.evaluate_mod(xa, xb, p) != 0:
                return False
            tested += 1
            if tested == samples:
                break
        if tested < samples:
            raise ValueError(f"{samples} samples asked, but only {tested} points "
                             f"t = 1..{p - 1} can be sampled mod p = {p}")
    return True


def _eval_mod(f: RationalFunction, x: int, p: int) -> int:
    num = _peval_mod(f.num, x, p)
    den = _peval_mod(f.den, x, p)
    if den == 0:
        raise ZeroDivisionError(f"pole mod {p} at {x}")
    return num * pow(den, -1, p) % p


def _peval_mod(poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        ci = int(c) if c.denominator == 1 else c.numerator * pow(c.denominator, -1, p)
        acc = (acc * x + ci) % p
    return acc
