"""Frobenius traces of the elliptic surfaces over F_p and F_{p^2}.

An element of F_q is an integer index in 0..q-1 in both fields: a in F_p,
and a*p + b for a + b*sqrt(nu) in F_{p^2}.  Each field has one arithmetic on
indices (``mul_vec``, ``add_vec``, ``constant``) for Python ints and numpy
arrays alike, and discrete-log tables ``exp[k] = g^k``, ``log[g^k] = k`` for
a generator g of F_q^*: the quadratic character is the parity of the log,
x^-1 is g^(-log x), a square root g^(log x / 2), x^3 is g^(3 log x).

The trace over F_q is minus the sum of local terms over P^1(F_q): q + 1 - #E
for a smooth fiber, +1 / -1 / 0 for split / nonsplit multiplicative /
additive fibers (-2AB a square, a nonsquare, zero).  ``local_trace`` counts
points one parameter at a time and is the reference.  ``fiber_trace_table``
gets every fiber of a base family over P^1(F_q), infinity last (index -1),
in O(q log q) from FFT character sums of three curves, in blocks of bounded
memory.  A family sits at f(r^3) = f0(k r^3), k = gcd(a, c) / gcd(b, d) for
f = (a, b, c, d), f0 shared by the twists of a cover.  r -> r^3 maps F_q^* mu
to one onto the mu-th powers, mu = gcd(3, q - 1): a sum reads the table at
f(0), f(infinity) and, mu times, at f0 on the class k (F_q^*)^mu, one per class.
At mu = 1, r -> r^3 and f permute P^1(F_q), and the sum is the table's total.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt

from .catalog import _factorize
# `surfaces` before `residues`, which imports numpy: compiling `surfaces` with
# numpy already loaded raised the peak RSS of perfbench's ap-scan process by
# 0.4 MiB
from .surfaces import COVERINGS, beauville_short
from .residues import exact_integers

import numpy as np
from numpy import fft      # numpy.fft is not loaded by ``import numpy``


class BadPrimeError(ValueError):
    """The requested prime is not of good reduction for the family, or not
    a prime >= 5 at all."""


def _checked_prime(p: int) -> int:
    """p, if it is a prime >= 5, the characteristics the fields support."""
    if p < 5 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise BadPrimeError(f"{p} is not a prime >= 5")
    return p


# ---------------------------------------------------------------------------
# fields (elements are indices: Python ints or int64 arrays of them)


class PrimeField:
    """F_p; the element a has index a."""

    def __init__(self, p: int):
        self.p = self.q = _checked_prime(p)
        self.shape = (p,)
        self._build_logs()

    def _build_logs(self):
        """``exp`` (length q - 1), ``log`` (log[0] = 0 as a placeholder) and
        ``chi_table`` for the first generator g of F_q^* in index order; exp
        is one outer product of g^0..g^(m-1) by g^(mk), m = ceil(sqrt(q - 1))."""
        n, one, mul = self.q - 1, self.constant(1), self.mul_vec
        cofactors = [n // ell for ell in _factorize(n)]
        g = next(x for x in range(one + 1, self.q)       # 2, or 1 + sqrt(nu)
                 if all(self.power(x, e) != one for e in cofactors))
        m = isqrt(n - 1) + 1
        baby = list(accumulate([g] * (m - 1), mul, initial=one))
        giant = list(accumulate([mul(baby[-1], g)] * (-(-n // m) - 1), mul, initial=one))
        self.g = g
        self.exp = mul(np.array(giant)[:, None], np.array(baby)).ravel()[:n]
        self.log = np.zeros(self.q, dtype=np.int64)
        self.log[self.exp] = np.arange(n)
        chi = 1 - 2 * (self.log & 1)
        chi[0] = 0
        self.chi_table = chi.astype(np.int8)
        self._inv = self._sums = None

    def inv_table(self) -> np.ndarray:
        """x^-1 = g^(-log x) for every element (0 -> 0)."""
        if self._inv is None:
            self._inv = self.exp[-self.log % (self.q - 1)]
            self._inv[0] = 0
        return self._inv

    def character_sums(self) -> np.ndarray:
        """The int16 table S[i, b] of ``_character_sums``, built once and
        shared by the E8 and E6 tables."""
        if self._sums is None:
            self._sums = _character_sums(self)
        return self._sums

    def mul_vec(self, x, y):
        return x * y % self.p

    def power(self, x: int, e: int) -> int:
        """x^e for one element index."""
        return pow(x, e, self.p)

    def add_vec(self, x, y):
        return (x + y) % self.p

    def constant(self, c: int) -> int:
        """Index of the image of the integer c."""
        return c % self.p

    def elements(self):
        return range(self.q)


class QuadExtField(PrimeField):
    """F_{p^2} = F_p(sqrt(nu)) for the smallest quadratic nonresidue nu; the
    element a + b*sqrt(nu) has index a*p + b.  The log tables and
    ``inv_table`` are those of PrimeField, built on this arithmetic."""

    def __init__(self, p: int):
        self.p, self.q = _checked_prime(p), p * p
        self.nu = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        self.shape = (p, p)     # the additive group, index a*p + b <-> [a, b]
        self._build_logs()

    def mul_vec(self, x, y):
        p = self.p
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        return (a * c + self.nu * b * d) % p * p + (a * d + b * c) % p

    def power(self, x: int, e: int) -> int:
        """x^e for one element index, by square-and-multiply."""
        acc = self.constant(1)
        while e:
            if e & 1:
                acc = self.mul_vec(acc, x)
            x, e = self.mul_vec(x, x), e >> 1
        return acc

    def add_vec(self, x, y):
        p = self.p
        return (x // p + y // p) % p * p + (x + y) % p

    def constant(self, c: int) -> int:
        """Index of the image of the integer c (the subfield F_p sits at a*p)."""
        return c % self.p * self.p


# room for F_p and F_{p^2} of one prime, as ``trace_rows`` reads prime by
# prime; positional arguments, one key per field
@lru_cache(maxsize=2)
def field_for(p: int, squared: bool, /):
    """F_{p^2} (squared) or F_p, one shared object per field, so its log,
    character, inverse and character-sum tables are built once."""
    return QuadExtField(p) if squared else PrimeField(p)


def _poly_eval(field, coeffs, x):
    """sum c_i x^i for integer coefficients c_i, at one element index or
    an array of them (Horner); whole tables take ``_poly_grids``."""
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


class LocalTrace(namedtuple("LocalTrace", (
        "point",                # element index, or "inf"
        "fiber_type", "value"))):
    __slots__ = ()


# ---------------------------------------------------------------------------
# surface families (a base level plus a parameter substitution r -> sub(r))


class SurfaceFamily(namedtuple("SurfaceFamily", (
        "label",
        "level",                # key of surfaces.BEAUVILLE, e.g. "E8"
        "mobius"))):
    """The level family pulled back along r -> f(r^3) for the integer Mobius
    map ``mobius`` = (a, b, c, d), f(s) = (a s + b) / (c s + d), stored with
    no common factor and c > 0 (d > 0 when c = 0).  The bad primes are 2, 3
    and those dividing ad - bc, where f stops being a bijection."""
    __slots__ = ()

    def __new__(cls, label: str, level: str, mobius: tuple[int, int, int, int]):
        m = mobius
        if not (isinstance(m, tuple) and len(m) == 4 and all(type(x) is int for x in m)):
            raise ValueError(f"{label}: the Mobius map {m!r} is not four integers")
        a, b, c, d = m
        if a * d == b * c:
            raise ValueError(f"{label}: the map is constant")
        unit = gcd(*m) * (1 if c > 0 or (c == 0 and d > 0) else -1)
        return super().__new__(cls, label, level, tuple(x // unit for x in m))

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace checks too

    def bad_primes(self) -> frozenset[int]:
        a, b, c, d = self.mobius
        return frozenset({2, 3, *_factorize(abs(a * d - b * c))})


def surface_families(group) -> list[SurfaceFamily]:
    """The families of a catalog group's cover, over its parent's Beauville
    family; none for a group without covering data."""
    cover = COVERINGS.get(group.name)
    return [SurfaceFamily(label, group.parent.family, f)
            for label, f in (cover.family_maps() if cover else ())]


# ---------------------------------------------------------------------------
# the per-level fiber trace table


@lru_cache(maxsize=None)
def _level_poly_coeffs(level: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sw = beauville_short(level)
    assert sw.A.den == sw.B.den == (Fraction(1),)
    return tuple(int(c) for c in sw.A.num), tuple(int(c) for c in sw.B.num)


def _infinity_model(level: str) -> tuple[int, int]:
    """Leading coefficients (A*, B*) of the model cleared at t = 1/s, s = 0."""
    A, B = _level_poly_coeffs(level)
    if len(A) - 1 != 4 or len(B) - 1 != 6:
        raise AssertionError("level family must have deg A = 4, deg B = 6")
    Astar, Bstar = A[-1], B[-1]
    if 4 * Astar ** 3 + 27 * Bstar ** 2 != 0:
        raise AssertionError("fiber at infinity expected to be singular")
    return Astar, Bstar


# A grid over F_{p^2} is filled in at most GRID_BLOCKS blocks of whole rows,
# and the counts of a character sum in as many blocks of x, each of at least
# BLOCK_MIN elements: the temporaries of a block then stay below the peak of
# one character-sum correlation, and a table with q <= BLOCK_MIN (and every
# F_p table) is one block.  Measurements in notes/decisions.md, "F_{p^2}
# tables in bounded memory".
GRID_BLOCKS = 8
BLOCK_MIN = 4096


def _blocks(count: int, width: int = 1) -> list[slice]:
    """range(count), items of ``width`` elements each, cut into at most
    GRID_BLOCKS slices of at least BLOCK_MIN elements (one slice if fewer)."""
    step = max(-(-count // GRID_BLOCKS), -(-BLOCK_MIN // width))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


# room for the four tables of one prime (E8 and E6, over F_p and F_{p^2}); a
# prime's tables give way to the next prime's
@lru_cache(maxsize=4)
def fiber_trace_table(level: str, p: int, squared: bool, /):
    """Local trace of the level family at every point of P^1(F_q): a
    read-only int32 array of q + 1 entries indexed by element, the point at
    infinity last (index -1); and that last entry again, as an int.

    Smooth fibers: for A = u^2 * rep with u = g^(log A // 2) and
    rep = g^(log A mod 2) (0 for A = 0), sum_x chi(x^3 + Ax + B) equals
    chi(u) * S_rep(B / u^3), read from the field's ``character_sums``; u,
    B / u^3 and chi(u) are sums of log indices.  Singular fibers take
    chi(-2AB).  The table is filled block by block of ``_poly_grids``, so
    beside the result only one block's temporaries are alive.
    """
    field = field_for(p, squared)
    n = field.q - 1
    E, L, chi, const = field.exp, field.log, field.chi_table, field.constant
    S = field.character_sums()
    # 4A^3 + 27B^2 = 0: both zero, or log 4 + 3 log A = log(-27) + 2 log B
    shift = L[const(4)] - L[const(-27)]
    tau = np.empty(field.q + 1, dtype=np.int32)      # |tau| <= 2 sqrt(q) by Hasse
    for block, (A, B) in _poly_grids(field, _level_poly_coeffs(level)):
        LA, LB = L[A], L[B]
        half = LA >> 1                          # log u
        code = np.where(A == 0, 0, 1 + (LA & 1))     # rep index: 0, 1 or g
        Bt = np.where(B == 0, 0, E[(LB - 3 * half) % n])
        t = (2 * (half & 1) - 1) * S[code, Bt]  # -chi(u) S_rep(B / u^3)
        sing = np.where(A == 0, B == 0, (B != 0) & ((shift + 3 * LA - 2 * LB) % n == 0))
        t[sing] = chi[field.mul_vec(field.mul_vec(A[sing], B[sing]), const(-2))]
        tau[block] = t

    Astar, Bstar = _infinity_model(level)
    tau[-1] = chi[const(-2 * Astar * Bstar)]
    tau.flags.writeable = False
    return tau, int(tau[-1])


def _poly_grids(field, polys):
    """Yield (block, values): a slice of element indices of F_q and each
    integer polynomial of ``polys`` at those elements, block after block.
    Both fields read one power table V[j] = a^j mod p for a in F_p, through
    int64 products of factors reduced mod p.  F_p is one block: the values
    are the coefficient rows times V.  Over F_{p^2},
    P(a + b w) = sum_k D_k(a) (b w)^k with D_k = P^(k) / k! and w^2 = nu:
    the rows D_k(a) nu^(k // 2) are the binomial matrix
    C(i, k) c_i nu^(k // 2) (row k, column i - k) times V, and a block is
    rows a of the (p, p) grid (``_blocks``), where the F_p part (even k)
    and the w part (odd k) are each one product of those rows (rows a) by
    V (columns b)."""
    p, size = field.p, max(map(len, polys))
    if field.q == p:        # no power table stays alive while a block is read
        C = np.array([[c % p for c in coeffs] + [0] * (size - len(coeffs))
                      for coeffs in polys], dtype=np.int64)
        yield slice(0, p), list(C @ _power_table(p, size) % p)
        return
    V = _power_table(p, size)
    Ds = [np.array([[comb(i, k) * c * pow(field.nu, k // 2, p) % p
                     for i, c in enumerate(coeffs)][k:] + [0] * k
                    for k in range(len(coeffs))], dtype=np.int64) @ V[:len(coeffs)] % p
          for coeffs in polys]
    for rows in _blocks(p, p):
        values = []
        for D in Ds:
            W = V[:len(D)]
            values.append((D[0::2, rows].T @ W[0::2] % p * p
                           + D[1::2, rows].T @ W[1::2] % p).ravel())
        yield slice(rows.start * p, rows.stop * p), values


def _power_table(p: int, size: int) -> np.ndarray:
    """V[j, a] = a^j mod p for j < size and a in F_p, as int64."""
    V = np.empty((size, p), dtype=np.int64)
    V[0], V[1] = 1, np.arange(p)
    for j in range(2, size):
        np.multiply(V[j - 1], V[1], out=V[j])
        V[j] %= p
    return V


def _cubic_counts(field, i: int) -> np.ndarray:
    """N[v] = #{x in F_q : x^3 + rep_i x = v} for rep_i = 0, 1, g, as
    float64: x = g^k gives x^3 = g^(3k) and g x = g^(k+1), k in blocks of
    ``_blocks``, and x = 0 adds v = 0."""
    n, E = field.q - 1, field.exp
    N = np.zeros(field.q)
    N[0] = 1
    for ks in _blocks(n):
        k = np.arange(ks.start, ks.stop)
        v = E[3 * k % n]
        if i:
            v = field.add_vec(v, E[(k + i - 1) % n])
        np.add.at(N, v, 1.0)
    return N


def _character_sums(field) -> np.ndarray:
    """S[i, b] = sum_x chi(x^3 + rep_i x + b) for rep_i = 0, 1, g and every
    b, as int16: the correlations of N_i (``_cubic_counts``) with chi by
    FFT.  Over F_p the three are one batched transform, linear, zero-padded
    to a power of two m >= 2p and folded mod p, S[b] = C[b] + C[m - p + b]
    (prime-length circular transforms were about 3x slower).  Over F_{p^2}
    they are circular on the (p, p) grid, one representative at a time
    against the spectrum of chi taken once, so one count table and one
    spectrum are alive at a time.  Each S_rep(b) is minus the trace of a
    curve over F_q, or 0 or +-1 at a singular one: every row is rounded
    under the guard of ``exact_integers`` and checked against the Hasse
    bound |S| <= 2 sqrt(q), which also fits S in int16 for p < 2^14."""
    q, shape = field.q, field.shape

    def checked(sums):
        if np.any(sums ** 2 > 4 * q):
            raise AssertionError(f"Hasse bound violated in the character sums over F_{q}")
        return sums.astype(np.int16)

    if len(shape) == 1:
        p = shape[0]
        m = 1 << (2 * p - 1).bit_length()
        N = np.array([_cubic_counts(field, i) for i in range(3)])
        C = fft.irfft(np.conj(fft.rfft(N, m)) * fft.rfft(field.chi_table, m), m)
        return checked(exact_integers(C[:, :p] + C[:, m - p:]))
    axes = (0, 1)
    chi_spectrum = fft.rfftn(field.chi_table.reshape(shape), axes=axes)
    S = np.empty((3, q), dtype=np.int16)
    for i in range(3):
        spectrum = fft.rfftn(_cubic_counts(field, i).reshape(shape), axes=axes)
        np.conjugate(spectrum, out=spectrum)
        spectrum *= chi_spectrum
        spectrum = fft.irfftn(spectrum, s=shape, axes=axes)      # the correlation
        S[i] = checked(exact_integers(spectrum.ravel()))
        del spectrum           # freed before the next counts
    return S


# ---------------------------------------------------------------------------
# traces


def _ratio(field, x: int, y: int) -> int:
    """x / y for integers x, y as an element index, -1 (infinity) when p | y."""
    return -1 if y % field.p == 0 else field.constant(x * pow(y, -1, field.p))


# one prime's class sums over both fields: at most 12 each for the catalog
@lru_cache(maxsize=24)
def _class_sum(level: str, p: int, squared: bool, mobius, j: int, /) -> tuple[int, int]:
    """(T_j, e) for f0 = ``mobius`` = (a, b, c, d): T_j sums tau(f0(s)) over
    the class s = g^(j + mu i) of F_q^*, mu = gcd(3, q - 1), and e = tau(f0(0))
    + tau(f0(infinity)) is the same for every twist f(s) = f0(k s).
    f0(s) = a/c + beta / (c s + d), beta = (bc - ad) / c, or
    (a/d) s + b/d when p | c, read at u = x s + y: the products x s over one
    class are the view exp[(log x + j) % mu::mu], a constant adds to an index
    mod q in both fields, and beta / u is a difference of logs."""
    field, tau = field_for(p, squared), fiber_trace_table(level, p, squared)[0]
    E, L, q = field.exp, field.log, field.q
    n, mu = q - 1, gcd(3, q - 1)
    a, b, c, d = mobius
    e = int(tau[_ratio(field, b, d)] + tau[_ratio(field, a, c)])
    affine = c % p == 0
    x, y = ((_ratio(field, a, d), _ratio(field, b, d)) if affine
            else (field.constant(c), field.constant(d)))
    u = (E[(int(L[x]) + j) % mu::mu] + y) % q         # x s + y
    if affine:
        return int(tau[u].sum()), e
    f = (E[(L[_ratio(field, b * c - a * d, c)] - L[u]) % n] + _ratio(field, a, c)) % q
    f[u == 0] = -1                                      # c s + d = 0: infinity
    return int(tau[f].sum()), e


def frobenius_trace(family: SurfaceFamily, p: int, squared: bool = False) -> int:
    """Tr(Frob_q) = - sum of local traces over P^1(F_q) for q = p or p^2.
    At mu = gcd(3, q - 1) = 1, r -> r^3 and f permute P^1(F_q), so that is
    minus the table's total.  Else it is -(mu T_j + e): f(s) = f0(k s) for
    f0 = (a/g, b/h, c/g, d/h) and k = g/h, g = gcd(a, c), h = gcd(b, d), in
    the class j = log k mod mu.  Refuses p dividing 6(ad - bc) in O(1); no
    other p divides g or h."""
    a, b, c, d = family.mobius
    if p < 5 or (a * d - b * c) % p == 0:
        raise BadPrimeError(
            f"{family.label}: {p} is not a good prime (bad set {sorted(family.bad_primes())})")
    mu = gcd(3, (p * p if squared else p) - 1)
    if mu == 1:
        return -int(fiber_trace_table(family.level, p, squared)[0].sum())
    field, g, h = field_for(p, squared), gcd(a, c), gcd(b, d)
    j = int(field.log[_ratio(field, g, h)]) % mu
    T, e = _class_sum(family.level, p, squared, (a // g, b // h, c // g, d // h), j)
    return -(mu * T + e)


def local_trace(family: SurfaceFamily, field, point) -> LocalTrace:
    """The local term at one point of P^1(F_q) (an element index or "inf"),
    computed scalar-wise from the cover map num(r) / den(r)."""
    a, b, c, d = family.mobius
    if point == "inf":
        s = _ratio(field, a, c)
    else:
        nv = _poly_eval(field, (b, 0, 0, a), point)
        dv = _poly_eval(field, (d, 0, 0, c), point)
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


# ---------------------------------------------------------------------------
# table assembly

TABLE8_PRIMES = (5, 7, 11, 13, 17, 19, 23, 73)


def trace_rows(groups, primes=TABLE8_PRIMES):
    """Rows (group, parameterization, p, tr_p, tr_p2) for the requested
    groups, in catalog order, primes ascending, computed prime by prime, so
    a prime's tables and class sums are built once while its families read them."""
    families = [(g.name, fam) for g in groups for fam in surface_families(g)]
    pairs = {(i, p): trace_pair(fam, p)
             for p in primes for i, (_, fam) in enumerate(families)}
    return [(name, fam.label, p, *pairs[i, p])
            for i, (name, fam) in enumerate(families) for p in primes]


CSV_HEADER = "group,parameterization,p,tr_p,tr_p2"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"
