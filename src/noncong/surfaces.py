"""Rational functions over Q, the Weierstrass families over the two genus-0
base curves, short-model conversion, j-invariants, involution identities and
modular-polynomial isogeny relations.

Polynomials are dense coefficient tuples (low degree first) with Fraction
entries; rational functions keep a monic denominator coprime to the
numerator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

ENV_MODPOLY_PATH = "NONCONG_MODPOLY_PATH"


class MissingPolynomialData(LookupError):
    """A modular polynomial that is not built in was requested."""


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
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


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


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pcompose_rational(p, num, den):
    """p(num/den) cleared: returns (poly, den^deg(p)) as polynomials."""
    n = len(p) - 1
    if n < 0:
        return (), (Fraction(1),)
    num_pows = [(Fraction(1),)]
    den_pows = [(Fraction(1),)]
    for _ in range(n):
        num_pows.append(_pmul(num_pows[-1], num))
        den_pows.append(_pmul(den_pows[-1], den))
    acc = ()
    for i, c in enumerate(p):
        if c:
            acc = _padd(acc, _pscale(_pmul(num_pows[i], den_pows[n - i]), c))
    return acc, den_pows[n]


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
        num = _trim([Fraction(c) for c in num])
        den = _trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (Fraction(1),))
            return
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

    @classmethod
    def from_coeffs(cls, coeffs) -> "RationalFunction":
        return cls(tuple(Fraction(c) for c in coeffs))

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num[0] if self.num else Fraction(0)

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
            base = base * base
            e >>= 1
        return out

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(t)), exact in Q(t)."""
        if self.is_zero:
            return RationalFunction(())
        # N(A/B) = n1 / B^da,  D(A/B) = n2 / B^db
        n1, _ = _pcompose_rational(self.num, inner.num, inner.den)
        n2, _ = _pcompose_rational(self.den, inner.num, inner.den)
        da = len(self.num) - 1
        db = len(self.den) - 1
        if da >= db:
            return RationalFunction(n1, _pmul(n2, _power(inner.den, da - db)))
        return RationalFunction(_pmul(n1, _power(inner.den, db - da)), n2)

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a rational point (raises at poles)."""
        x = Fraction(x)
        d = _peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return _peval(self.num, x) / d


def _power(p, e):
    out = (Fraction(1),)
    for _ in range(e):
        out = _pmul(out, p)
    return out


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


@dataclass(frozen=True)
class WeierstrassFamily:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(t)."""

    label: str
    a1: RationalFunction
    a2: RationalFunction
    a3: RationalFunction
    a4: RationalFunction
    a6: RationalFunction


@dataclass(frozen=True)
class ShortWeierstrass:
    """y^2 = x^3 + A x + B together with the scale used to reach it."""

    A: RationalFunction
    B: RationalFunction
    scale: Fraction = Fraction(1)

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
    sw = ShortWeierstrass(A, B, u)
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
    return ShortWeierstrass(sw.A.compose(sub), sw.B.compose(sub), sw.scale)


# The two families the triple covers live over, plus the other four genus-0
# index-12 fibrations, each with its j-invariant for cross checks.  `j_factor`
# reconciles the classical j column with the j of the Weierstrass data (the
# level-4 column is short by 2^8).  The level-3 a6 is the one forced by the
# Hesse pencil x^3 + y^3 + z^3 = t*x*y*z in the same row.

_t = T

BEAUVILLE: dict[str, dict] = {
    "E3": dict(
        family=WeierstrassFamily("E3", rf([0]), rf([0, 0, 1]), rf([0]),
                                 rf([0, -72]), rf([-432, 0, 0, -64])),
        scale=Fraction(1),
        j_column=(rf([0, 0, 0, 1]) * rf([216, 0, 0, 1]) ** 3
                  / rf([-27, 0, 0, 1]) ** 3),
        j_factor=Fraction(1),
    ),
    "E4": dict(
        family=WeierstrassFamily("E4", rf([0]), rf([4, 0, 4]), rf([0]),
                                 rf([0, 0, 16]), rf([0])),
        scale=Fraction(1),
        j_column=(rf([1, 0, -1, 0, 1]) ** 3
                  / (rf([0, 0, 0, 0, 1]) * rf([-1, 1]) ** 2 * rf([1, 1]) ** 2)),
        j_factor=Fraction(256),
    ),
    "E5": dict(
        family=WeierstrassFamily("E5", rf([1, 1]), rf([0, 1]), rf([0, 1]),
                                 rf([0]), rf([0])),
        scale=Fraction(1),
        j_column=(rf([1, -12, 14, 12, 1]) ** 3 * Fraction(-1)
                  / (rf([0, 0, 0, 0, 0, 1]) * rf([-1, 11, 1]))),
        j_factor=Fraction(1),
    ),
    "E6": dict(
        family=WeierstrassFamily("E6", rf([1, 1]), rf([0, 1, -1]), rf([0, 1, -1]),
                                 rf([0]), rf([0])),
        scale=Fraction(1, 2),
        j_column=(rf([-1, 3]) ** 3 * rf([-1, 9, -3, 3]) ** 3
                  / (rf([-1, 1]) ** 3 * rf([0, 0, 0, 0, 0, 0, 1]) * rf([-1, 9]))),
        j_factor=Fraction(1),
    ),
    "E8": dict(
        family=WeierstrassFamily("E8", rf([4]), rf([0, 0, 1]), rf([0, 0, 4]),
                                 rf([0]), rf([0])),
        scale=Fraction(2),
        j_column=(rf([16, 0, -16, 0, 1]) ** 3 * Fraction(-16)
                  / (rf([0] * 8 + [1]) * rf([1, 1]) * rf([-1, 1]))),
        j_factor=Fraction(1),
    ),
    "E9": dict(
        family=WeierstrassFamily("E9", rf([0]), rf([0, 0, 1]), rf([0]),
                                 rf([0, 8]), rf([16])),
        scale=Fraction(1),
        j_column=(rf([0, 0, 0, 1]) * rf([-24, 0, 0, 1]) ** 3 / rf([-27, 0, 0, 1])),
        j_factor=Fraction(1),
    ),
}


def beauville_short(level_label: str) -> ShortWeierstrass:
    entry = BEAUVILLE[level_label]
    return long_to_short(entry["family"], entry["scale"])


# ---------------------------------------------------------------------------
# involution identities


def involution_identity_check(group) -> bool:
    """Verify (iota(cbrt(m(t))))^3 == m(i(t)) in Q(t).

    Every catalog iota is monomial, iota(r) = c*r or c/r, so the cube lives
    in Q(t) after substituting r^3 = m(t).
    """
    m = group.covering_m
    i = group.involution_base
    iota = group.involution_cover
    if m is None or i is None or iota is None:
        raise ValueError(f"{group.name}: no involution data")
    c, e = _monomial_form(iota)
    lhs = RationalFunction.const(c ** 3) * (m ** e)
    rhs = m.compose(i)
    return lhs == rhs


def _monomial_form(iota: RationalFunction) -> tuple[Fraction, int]:
    """Write iota(r) as c*r^e with e in {1, -1}."""
    if len(iota.num) == 2 and iota.num[0] == 0 and iota.den == (Fraction(1),):
        return iota.num[1], 1
    if len(iota.num) == 1 and len(iota.den) == 2 and iota.den[0] == 0:
        return iota.num[0] / iota.den[1], -1
    raise ValueError(f"involution {iota!r} is not monomial in r")


# ---------------------------------------------------------------------------
# modular polynomials


@dataclass(frozen=True)
class ModularPolynomial:
    """Symmetric bivariate polynomial Phi_d as {(i, j): c}."""

    d: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.d > 1:
            tdict = {(i, j): c for i, j, c in self.terms}
            for (i, j), c in tdict.items():
                if tdict.get((j, i)) != c:
                    raise ValueError(f"Phi_{self.d} data is not symmetric at {(i, j)}")

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
        """Exact identity Phi(x(t), y(t)) == 0, via cleared numerators."""
        dx = max(i for i, _, _ in self.terms)
        dy = max(j for _, j, _ in self.terms)
        ax = [(Fraction(1),)]
        bx = [(Fraction(1),)]
        ay = [(Fraction(1),)]
        by = [(Fraction(1),)]
        for _ in range(dx):
            ax.append(_pmul(ax[-1], x.num))
            bx.append(_pmul(bx[-1], x.den))
        for _ in range(dy):
            ay.append(_pmul(ay[-1], y.num))
            by.append(_pmul(by[-1], y.den))
        acc = ()
        for i, j, c in self.terms:
            term = _pmul(_pmul(ax[i], bx[dx - i]), _pmul(ay[j], by[dy - j]))
            acc = _padd(acc, _pscale(term, c))
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
    """Plain-text format: first line d, then `i j c` terms (one per line);
    a line `sym` means symmetric pairs may be listed once."""
    terms: dict[tuple[int, int], int] = {}
    sym = False
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if d is None:
                d = int(line)
                continue
            if line == "sym":
                sym = True
                continue
            i, j, c = line.split()
            terms[(int(i), int(j))] = int(c)
    if d is None:
        raise ValueError(f"{path}: empty modular polynomial file")
    if sym:
        for (i, j), c in list(terms.items()):
            terms.setdefault((j, i), c)
    return ModularPolynomial.from_dict(d, terms)


def modular_polynomial(d: int, path: str | None = None) -> ModularPolynomial:
    """Phi_d: built in for d <= 3, otherwise read from `path` or the file
    named by the NONCONG_MODPOLY_PATH environment variable."""
    if d in _BUILTIN_PHI:
        return _BUILTIN_PHI[d]
    path = path or os.environ.get(ENV_MODPOLY_PATH)
    if path and os.path.exists(path):
        mp = load_modular_polynomial_file(path)
        if mp.d == d:
            return mp
        raise MissingPolynomialData(
            f"polynomial data required: file {path} holds Phi_{mp.d}, not Phi_{d}")
    raise MissingPolynomialData(
        f"polynomial data required: Phi_{d} is not built in; supply a data file")


# ---------------------------------------------------------------------------
# isogeny relations

# Degree / kernel / field of definition of the fiberwise isogeny lifting each
# base involution i(t), keyed by the involution.  The kernel polynomials are
# catalog data (roots are x-coordinates of the kernel).

ISOGENY_BY_INVOLUTION: dict[str, dict] = {
    "E8:-t": dict(level="E8", i=-_t, d=1, kernel="-", field="Q"),
    "E8:1/t": dict(level="E8", i=1 / _t, d=4, kernel="(x + t^2)*x", field="Q"),
    "E8:(1-t)/(1+t)": dict(level="E8", i=(1 - _t) / (1 + _t), d=8,
                           kernel="(x^2 - 4*t*x - 4*t^3)*(x + t^2)*x",
                           field="Q(sqrt(-1))"),
    "E8:(t+1)/(t-1)": dict(level="E8", i=(_t + 1) / (_t - 1), d=8,
                           kernel="(x^2 + 4*t*x + 4*t^3)*(x + t^2)*x",
                           field="Q(sqrt(-1))"),
    "E6:1/(9t)": dict(level="E6", i=1 / (9 * _t), d=3, kernel="x - t^2 + t",
                      field="Q(sqrt(-3))"),
    "E6:(1-9t)/(9-9t)": dict(level="E6", i=(1 - 9 * _t) / (9 - 9 * _t), d=6,
                             kernel="(x - t^2 + t)*x*(x + t)",
                             field="Q(sqrt(-3))"),
}

# Isogenies between the covers that pair the trace-table rows: each entry is
# Phi_d(j(level_a at sub_a), j(level_b at sub_b)) = 0 as functions of t.
# The d=3 and d=6 entries are instances of the self-involution relations:
# (1-3t)/(9-3t) is the degree-6 involution image of t/3, and t/(9t-24) is
# 1/(9*(1-8/(3t))).

INTER_FAMILY_RELATIONS: dict[str, dict] = {
    "1a": dict(level_a="E8", sub_a=(_t - 1) / (_t + 1), level_b="E8",
               sub_b=1 / _t, d=8),
    "2a": dict(level_a="E8", sub_a=4 * _t - 1, level_b="E8",
               sub_b=2 / ((1 / _t) - 2), d=8),
    "3a": dict(level_a="E6", sub_a=(1 - 3 * _t) / (9 - 3 * _t), level_b="E6",
               sub_b=_t / 3, d=6),
    "4a": dict(level_a="E6", sub_a=1 - 8 / (3 * _t), level_b="E6",
               sub_b=1 / (9 - 24 * (1 / _t)), d=3),
}


def relation_j_pair(rel: dict) -> tuple[RationalFunction, RationalFunction, int]:
    ja = j_invariant(substitute_parameter(beauville_short(rel["level_a"]), rel["sub_a"]))
    jb = j_invariant(substitute_parameter(beauville_short(rel["level_b"]), rel["sub_b"]))
    return ja, jb, rel["d"]


def isogeny_relation_check(rel: dict, mode: str = "sampled",
                           primes=(101, 103), samples: int = 50,
                           modpoly_path: str | None = None) -> bool:
    """Check Phi_d(j1(t), j2(t)) = 0 for a relation, symbolically in Q(t) or
    sampled over F_p at `samples` non-pole points per prime."""
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, not {samples}")
    if "i" in rel:  # self relation from ISOGENY_BY_INVOLUTION
        j = j_invariant(beauville_short(rel["level"]))
        ja, jb, d = j, j.compose(rel["i"]), rel["d"]
    else:
        ja, jb, d = relation_j_pair(rel)
    phi = modular_polynomial(d, modpoly_path)
    if mode == "symbolic":
        return phi.vanishes_on(ja, jb)
    if mode != "sampled":
        raise ValueError("mode must be 'symbolic' or 'sampled'")
    for p in primes:
        tested = 0
        t0 = 1
        while tested < samples and t0 < p:
            try:
                xa = _eval_mod(ja, t0, p)
                xb = _eval_mod(jb, t0, p)
            except ZeroDivisionError:
                t0 += 1
                continue
            if phi.evaluate_mod(xa, xb, p) != 0:
                return False
            tested += 1
            t0 += 1
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
