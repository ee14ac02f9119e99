"""Frobenius traces of the elliptic surfaces over F_p and F_{p^2}.

An element of F_q is an integer index in 0..q-1 in both fields: a in F_p,
and a*p + b for a + b*sqrt(nu) in F_{p^2}.  Each field has one arithmetic on
indices (``mul_vec``, ``add_vec``, ``constant``, ``chi_table``,
``inv_table``) that takes a Python int or a numpy array alike, and
``field_for`` hands out one field object per (p, squared, nonresidue).

The trace over F_q is the negated sum of local terms over P^1(F_q):
q + 1 - #E for a smooth fiber, +1 / -1 / 0 for split multiplicative /
nonsplit multiplicative / additive fibers, with the singular type decided
by whether -2AB is zero, a nonzero square, or a nonsquare.

Point counts use the quadratic-character sum #E = q + 1 + sum chi(x^3+Ax+B).
The scalar path (``local_trace``, ``count_points_short``) evaluates that sum
directly, one parameter at a time, and serves as the reference.
``fiber_trace_table`` obtains every fiber of one base family at once in
O(q log q): writing A = u^2 * A_rep with A_rep in {0, 1, a nonsquare}, the
fiber (A, B) is the quadratic twist by u of (A_rep, B/u^3), and the three
sums S_rep(B) = sum_x chi(x^3 + A_rep x + B) over all B are
cross-correlations on the additive group of F_q, done by FFT.  All twelve
cover parameterizations of one base family at one q share that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .catalog import _factorize
from .surfaces import (RationalFunction, beauville_short, polynomial_resultant)


class BadPrimeError(ValueError):
    """The requested prime is not of good reduction for the family."""


# ---------------------------------------------------------------------------
# fields (elements are indices: Python ints or int64 arrays of them)


class PrimeField:
    """F_p; the element a has index a."""

    def __init__(self, p: int):
        if p < 5:
            raise BadPrimeError("characteristic must not be 2 or 3")
        self.p = p
        self.q = p
        sq = np.full(p, -1, dtype=np.int8)
        sq[0] = 0
        roots = (np.arange(1, p, dtype=np.int64) ** 2) % p
        sq[roots] = 1
        self.chi_table = sq
        self.shape = (p,)
        self._inv = None

    def inv_table(self) -> np.ndarray:
        """x^-1 for every element (0 -> 0), by Fermat: x^(p-2) over the
        whole array with square-and-multiply."""
        if self._inv is None:
            p = self.p
            base = np.arange(p, dtype=np.int64)
            inv = np.ones(p, dtype=np.int64)
            e = p - 2
            while e:
                if e & 1:
                    inv = inv * base % p
                base = base * base % p
                e >>= 1
            self._inv = inv
        return self._inv

    def mul_vec(self, x, y):
        return x * y % self.p

    def add_vec(self, x, y):
        return (x + y) % self.p

    def constant(self, c: int) -> int:
        """Index of the image of the integer c."""
        return c % self.p

    def elements(self):
        return range(self.q)


class QuadExtField:
    """F_{p^2} = F_p(sqrt(nu)) for a quadratic nonresidue nu; the element
    a + b*sqrt(nu) has index a*p + b."""

    def __init__(self, p: int, nonresidue: int | None = None):
        base = PrimeField(p)
        self.p = p
        self.q = p * p
        self.base = base
        if nonresidue is None:
            nonresidue = int(np.argmax(base.chi_table == -1))
        if base.chi_table[nonresidue % p] != -1:
            raise ValueError(f"{nonresidue} is a square mod {p}")
        self.nu = nonresidue % p
        self.chi_table = base.chi_table[self._norms()]   # chi_q = chi_p o Norm
        self.shape = (p, p)     # the additive group, index a*p + b <-> [a, b]
        self._inv = None

    def _norms(self) -> np.ndarray:
        """Norm(x) = a^2 - nu b^2 of every element x = a*p + b."""
        a, b = divmod(np.arange(self.q, dtype=np.int64), self.p)
        return (a * a - self.nu * b * b) % self.p

    def inv_table(self) -> np.ndarray:
        """u^-1 = conj(u) / Norm(u) for every element (0 -> 0)."""
        if self._inv is None:
            p = self.p
            a, b = divmod(np.arange(self.q, dtype=np.int64), p)
            ninv = self.base.inv_table()[self._norms()]
            self._inv = a * ninv % p * p + (-b) * ninv % p
        return self._inv

    def mul_vec(self, x, y):
        p = self.p
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        return (a * c + self.nu * b * d) % p * p + (a * d + b * c) % p

    def add_vec(self, x, y):
        p = self.p
        return (x // p + y // p) % p * p + (x + y) % p

    def constant(self, c: int) -> int:
        """Index of the image of the integer c (the subfield F_p sits at a*p)."""
        return c % self.p * self.p

    def elements(self):
        return range(self.q)


# room for F_p and F_{p^2} of two primes
@lru_cache(maxsize=4)
def field_for(p: int, squared: bool, nonresidue: int | None = None):
    """F_{p^2} (squared) or F_p, one shared object per argument tuple, so
    its character and inverse tables are built once."""
    return QuadExtField(p, nonresidue) if squared else PrimeField(p)


def _poly_eval(field, coeffs, x):
    """sum c_i x^i for integer coefficients c_i, at one element index or
    an array of them (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add_vec(field.mul_vec(acc, x), field.constant(c))
    return acc


# ---------------------------------------------------------------------------
# spec-level scalar operations


def quadratic_character(field, u) -> int:
    """0 for zero, +1 for a nonzero square, -1 otherwise."""
    return int(field.chi_table[u])


def _disc(field, A, B):
    """4A^3 + 27B^2 (up to sign the discriminant of x^3 + Ax + B)."""
    mul = field.mul_vec
    return field.add_vec(mul(mul(mul(A, A), A), field.constant(4)),
                         mul(mul(B, B), field.constant(27)))


def count_points_short(field, A, B) -> int:
    """#E(F_q) for y^2 = x^3 + Ax + B via the character sum."""
    if _disc(field, A, B) == 0:
        raise ValueError("singular curve: classify the fiber instead of counting")
    x = np.arange(field.q, dtype=np.int64)
    rhs = field.add_vec(field.mul_vec(field.add_vec(field.mul_vec(x, x), A), x), B)
    return int(field.q + 1 + field.chi_table[rhs].sum())


def classify_singular_fiber(field, A, B) -> str:
    """Tate type of a singular short Weierstrass fiber from chi(-2AB)."""
    if _disc(field, A, B) != 0:
        raise ValueError("nonsingular curve: count points instead of classifying")
    minus_2ab = field.mul_vec(field.mul_vec(A, B), field.constant(-2))
    c = quadratic_character(field, minus_2ab)
    return {0: "additive", 1: "splitMult", -1: "nonsplitMult"}[c]


FIBER_VALUE = {"splitMult": 1, "nonsplitMult": -1, "additive": 0}


@dataclass(frozen=True)
class LocalTrace:
    point: object          # element index, or "inf"
    fiber_type: str
    value: int


# ---------------------------------------------------------------------------
# surface families (a base level plus a parameter substitution r -> sub(r))


@dataclass(frozen=True)
class SurfaceFamily:
    label: str
    level: str                     # "E8" or "E6"
    sub: RationalFunction

    @lru_cache(maxsize=None)
    def _int_data(self):
        num, den = _clear_rational(self.sub)
        res = polynomial_resultant([Fraction(c) for c in num],
                                   [Fraction(c) for c in den])
        bad = {2, 3}
        for n in (res.numerator, res.denominator, gcd(*num), gcd(*den)):
            bad |= set(_factorize(abs(n)))
        return num, den, frozenset(bad)

    def bad_primes(self) -> frozenset[int]:
        return self._int_data()[2]


def _clear_rational(f: RationalFunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    den_lcm = lcm(*[c.denominator for c in f.num + f.den], 1)
    num = tuple(int(c * den_lcm) for c in f.num)
    den = tuple(int(c * den_lcm) for c in f.den)
    return num, den


def surface_families(group) -> list[SurfaceFamily]:
    level = "E8" if group.parent == "G8" else "E6"
    return [SurfaceFamily(label, level, sub) for label, sub in group.parameterizations]


# ---------------------------------------------------------------------------
# the per-level fiber trace table


@lru_cache(maxsize=None)
def _level_poly_coeffs(level: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sw = beauville_short(level)
    A = tuple(int(c) for c in sw.A.num)
    B = tuple(int(c) for c in sw.B.num)
    assert sw.A.den == (Fraction(1),) and sw.B.den == (Fraction(1),)
    return A, B


def _infinity_model(level: str) -> tuple[int, int]:
    """Leading coefficients (A*, B*) of the model cleared at t = 1/s, s = 0."""
    A, B = _level_poly_coeffs(level)
    if len(A) - 1 != 4 or len(B) - 1 != 6:
        raise AssertionError("level family must have deg A = 4, deg B = 6")
    Astar, Bstar = A[-1], B[-1]
    if 4 * Astar ** 3 + 27 * Bstar ** 2 != 0:
        raise AssertionError("fiber at infinity expected to be singular")
    return Astar, Bstar


# Largest prime the CLI accepts for traces: building the F_{p^2} fiber-trace
# table takes about 9 s and 740 MiB at p = 2003.
PRIME_LIMIT = 2003


# room for the four tables of one prime (E8 and E6, over F_p and F_{p^2}) twice
@lru_cache(maxsize=8)
def fiber_trace_table(level: str, p: int, squared: bool,
                      nonresidue: int | None = None):
    """Local trace of the level family at every parameter value of F_q (a
    read-only int32 array indexed by element), plus the trace at the
    parameter point at infinity.

    Smooth fibers: for A = u^2 * rep, sum_x chi(x^3 + Ax + B) equals
    chi(u) * S_rep(B / u^3) with S_rep(b) = sum_v N_rep(v) chi(v + b) and
    N_rep(v) = #{x : x^3 + rep x = v}; each S_rep is one FFT correlation
    over the additive group.  Singular fibers take chi(-2AB).
    """
    from numpy import fft      # numpy.fft is not loaded by ``import numpy``
    field = field_for(p, squared, nonresidue)
    q, shape = field.q, field.shape
    mul, chi, const = field.mul_vec, field.chi_table, field.constant
    Acoef, Bcoef = _level_poly_coeffs(level)
    s = np.arange(q, dtype=np.int64)
    A = _poly_eval(field, Acoef, s)
    B = _poly_eval(field, Bcoef, s)

    reps = np.array([0, const(1), np.argmax(chi == -1)], dtype=np.int64)
    x3 = mul(mul(s, s), s)
    chi_hat = fft.rfftn(chi.reshape(shape).astype(np.float64))
    S = np.empty((3, q), dtype=np.int64)
    for k, rep in enumerate(reps):
        N = np.bincount(field.add_vec(x3, mul(s, rep)), minlength=q)
        corr = fft.irfftn(np.conj(fft.rfftn(N.reshape(shape))) * chi_hat,
                          s=shape, axes=range(len(shape)))
        S[k] = _exact_integers(corr.ravel())

    inv = field.inv_table()
    code = chi[A] % 3                       # 0: A = 0, 1: square, 2: nonsquare
    u = _sqrt_table(field)[mul(A, inv[reps[code]])]
    u[code == 0] = const(1)
    Bt = mul(B, inv[mul(mul(u, u), u)])
    tau = -chi[u] * S[code, Bt]

    sing = _disc(field, A, B) == 0
    if np.any(tau[~sing] ** 2 > 4 * q):
        raise AssertionError(f"Hasse bound violated in the {level} table over F_{q}")
    tau[sing] = chi[mul(mul(A, B), const(-2))[sing]]
    tau = tau.astype(np.int32)              # |tau| <= 2 sqrt(q) by Hasse

    Astar, Bstar = _infinity_model(level)
    tau_inf = chi[const(-2 * Astar * Bstar)]
    tau.flags.writeable = False
    return tau, int(tau_inf)


def _exact_integers(values: np.ndarray) -> np.ndarray:
    """Round FFT output whose exact values are integers, refusing it when
    any entry lies 0.25 or more from the nearest integer."""
    rounded = np.rint(values)
    margin = float(np.max(np.abs(values - rounded)))
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin:.3g} reached 0.25")
    return rounded.astype(np.int64)


def _sqrt_table(field) -> np.ndarray:
    """A square root of every square of F_q (entries at nonsquares are 0)."""
    x = np.arange(field.q, dtype=np.int64)
    root = np.zeros(field.q, dtype=np.int64)
    root[field.mul_vec(x, x)] = x
    return root


# ---------------------------------------------------------------------------
# traces


def _check_good_prime(family: SurfaceFamily, p: int):
    if p in family.bad_primes():
        raise BadPrimeError(
            f"{family.label}: {p} is not a good prime (bad set {sorted(family.bad_primes())})")


def _bucket_indices(family: SurfaceFamily, field) -> tuple[np.ndarray, int]:
    """Parameter value s = sub(r) for every r in F_q and for r = infinity,
    as element indices with -1 standing for s = infinity."""
    num, den, _ = family._int_data()
    r = np.arange(field.q, dtype=np.int64)
    nv = _poly_eval(field, num, r)
    dv = _poly_eval(field, den, r)
    zero_den = dv == 0
    if np.any(nv[zero_den] == 0):
        raise BadPrimeError(f"{family.label}: map degenerates mod {field.p}")
    s = field.mul_vec(nv, field.inv_table()[dv])
    return np.where(zero_den, -1, s), _image_of_infinity(family, field)


def _image_of_infinity(family: SurfaceFamily, field) -> int:
    """sub(infinity) from the leading coefficients, as an element index
    (-1 for infinity)."""
    num, den, _ = family._int_data()
    p = field.p
    dn = _degree_mod(num, p)
    dd = _degree_mod(den, p)
    if dn < 0 or dd < 0:
        raise BadPrimeError(f"{family.label}: map collapses mod {p}")
    if dn > dd:
        return -1
    if dn < dd:
        return 0
    return field.constant(num[dn] * pow(den[dd], -1, p))


def _degree_mod(coeffs, p) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] % p:
            return i
    return -1


def frobenius_trace(family: SurfaceFamily, p: int, squared: bool = False,
                    nonresidue: int | None = None) -> int:
    """Tr(Frob_q) = - sum of local traces over P^1(F_q), q = p or p^2."""
    _check_good_prime(family, p)
    field = field_for(p, squared, nonresidue)
    tau_arr, tau_inf = fiber_trace_table(family.level, p, squared, nonresidue)
    idx, inf_image = _bucket_indices(family, field)
    total = 0
    finite = idx >= 0
    total += int(tau_arr[idx[finite]].sum())
    total += int((~finite).sum()) * tau_inf
    total += tau_inf if inf_image == -1 else int(tau_arr[inf_image])
    return -total


def local_trace(family: SurfaceFamily, field, point) -> LocalTrace:
    """The local term at one point of P^1(F_q) (an element index or "inf"),
    computed scalar-wise."""
    if point == "inf":
        s = _image_of_infinity(family, field)
    else:
        num, den, _ = family._int_data()
        nv = _poly_eval(field, num, point)
        dv = _poly_eval(field, den, point)
        if dv == 0 and nv == 0:
            raise BadPrimeError(f"{family.label}: map degenerates mod {field.p}")
        s = -1 if dv == 0 else field.mul_vec(nv, int(field.inv_table()[dv]))
    if s == -1:
        Astar, Bstar = _infinity_model(family.level)
        A, B = field.constant(Astar), field.constant(Bstar)
    else:
        Acoef, Bcoef = _level_poly_coeffs(family.level)
        A, B = _poly_eval(field, Acoef, s), _poly_eval(field, Bcoef, s)
    if _disc(field, A, B) == 0:
        kind = classify_singular_fiber(field, A, B)
        return LocalTrace(point, kind, FIBER_VALUE[kind])
    return LocalTrace(point, "smooth", field.q + 1 - count_points_short(field, A, B))


def trace_pair(family: SurfaceFamily, p: int) -> tuple[int, int]:
    """(Tr_p, Tr_{p^2})."""
    return frobenius_trace(family, p, False), frobenius_trace(family, p, True)


def trace_fingerprint_equal(fam_a: SurfaceFamily, fam_b: SurfaceFamily,
                            primes) -> dict[int, dict]:
    """Per-prime comparison of Tr_p and Tr_{p^2} between two families."""
    out = {}
    for p in primes:
        ta, ta2 = trace_pair(fam_a, p)
        tb, tb2 = trace_pair(fam_b, p)
        out[p] = dict(tr_p=(ta, tb), tr_p2=(ta2, tb2),
                      tr_p_equal=ta == tb, tr_p2_equal=ta2 == tb2)
    return out


# ---------------------------------------------------------------------------
# table assembly

TABLE8_PRIMES = (5, 7, 11, 13, 17, 19, 23, 73)


def trace_rows(groups, primes=TABLE8_PRIMES):
    """Rows (group, parameterization, p, tr_p, tr_p2) for the requested
    groups, in catalog order, primes ascending.

    The traces are computed prime by prime: the (at most four) fiber-trace
    tables of one prime are built once and stay in the bounded table cache
    while every family reads them.
    """
    families = [(g.name, fam) for g in groups for fam in surface_families(g)]
    pairs = {(i, p): trace_pair(fam, p)
             for p in primes for i, (_, fam) in enumerate(families)}
    return [(name, fam.label, p, *pairs[i, p])
            for i, (name, fam) in enumerate(families) for p in primes]


def rows_to_csv(rows) -> str:
    lines = ["group,parameterization,p,tr_p,tr_p2"]
    for name, label, p, tr, tr2 in rows:
        lines.append(f"{name},{label},{p},{tr},{tr2}")
    return "\n".join(lines) + "\n"
