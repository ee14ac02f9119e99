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
gets every fiber of a base family at once in O(q log q) from the quadratic
twists of three curves, whose character sums are FFT correlations; over
F_{p^2} the sums run one curve at a time and the table fills in blocks of
rows, so the memory beside the field's tables and the result stays a
bounded share of q.  Every family sits at f(r^3) for an integer Mobius map
f (``SurfaceFamily.mobius``, derived from the group's covering map), so a
family's sum reads the table at f(0), f(infinity) and, three times each, at
f(s) for the (q - 1) / 3 cubes s of F_q^*; when 3 does not divide q - 1,
r -> r^3 and f permute P^1(F_q) and the sum is the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt

from .catalog import _factorize
from .series import exact_integers
from .surfaces import COVERINGS, beauville_short

# numpy after the package's modules: compiling `surfaces` with numpy already
# loaded raised the peak RSS of perfbench's ap-scan process by 0.4 MiB
import numpy as np


class BadPrimeError(ValueError):
    """The requested prime is not of good reduction for the family."""


# ---------------------------------------------------------------------------
# fields (elements are indices: Python ints or int64 arrays of them)


class PrimeField:
    """F_p; the element a has index a."""

    def __init__(self, p: int):
        if p < 5:
            raise BadPrimeError("characteristic must not be 2 or 3")
        self.p, self.q, self.shape = p, p, (p,)
        self._build_logs()

    def _build_logs(self):
        """``exp`` (length q - 1), ``log`` (log[0] = 0 as a placeholder) and
        ``chi_table`` for the first generator g of F_q^* in index order; exp
        is one outer product of g^0..g^(m-1) by g^(mk), m = ceil(sqrt(q - 1))."""
        n, one, mul = self.q - 1, self.constant(1), self.mul_vec
        g = next(x for x in range(one + 1, self.q)       # 2, or 1 + sqrt(nu)
                 if all(_power(self, x, n // ell) != one for ell in _factorize(n)))
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
        if p < 5:
            raise BadPrimeError("characteristic must not be 2 or 3")
        self.p, self.q = p, p * p
        self.nu = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        self.shape = (p, p)     # the additive group, index a*p + b <-> [a, b]
        self._build_logs()

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


def _power(field, x: int, e: int) -> int:
    """x^e for one element index, by square-and-multiply."""
    if e == 0:
        return field.constant(1)
    half = _power(field, field.mul_vec(x, x), e >> 1)
    return field.mul_vec(half, x) if e & 1 else half


# room for F_p and F_{p^2} of two primes; positional arguments, one key per field
@lru_cache(maxsize=4)
def field_for(p: int, squared: bool, /):
    """F_{p^2} (squared) or F_p, one shared object per field, so its log,
    character, inverse and character-sum tables are built once."""
    return QuadExtField(p) if squared else PrimeField(p)


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
    """The level family pulled back along r -> f(r^3) for the integer Mobius
    map ``mobius`` = (a, b, c, d), f(s) = (a s + b) / (c s + d), stored with
    no common factor and c > 0 (d > 0 when c = 0).  The bad primes are 2, 3
    and those dividing ad - bc, where f stops being a bijection."""
    label: str
    level: str                     # key of surfaces.BEAUVILLE, e.g. "E8"
    mobius: tuple[int, int, int, int]

    def __post_init__(self):
        m = self.mobius
        if not (isinstance(m, tuple) and len(m) == 4 and all(type(x) is int for x in m)):
            raise ValueError(f"{self.label}: the Mobius map {m!r} is not four integers")
        a, b, c, d = m
        if a * d == b * c:
            raise ValueError(f"{self.label}: the map is constant")
        unit = gcd(*m) * (1 if c > 0 or (c == 0 and d > 0) else -1)
        a, b, c, d = m = tuple(x // unit for x in m)
        object.__setattr__(self, "mobius", m)
        object.__setattr__(self, "_bad", frozenset({2, 3, *_factorize(abs(a * d - b * c))}))

    def bad_primes(self) -> frozenset[int]:
        return self._bad


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


# room for the four tables of one prime (E8 and E6, over F_p and F_{p^2}) twice
@lru_cache(maxsize=8)
def fiber_trace_table(level: str, p: int, squared: bool, /):
    """Local trace of the level family at every parameter value of F_q (a
    read-only int32 array indexed by element), plus the trace at the
    parameter point at infinity.

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
    tau = np.empty(field.q, dtype=np.int32)      # |tau| <= 2 sqrt(q) by Hasse
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
    tau_inf = chi[const(-2 * Astar * Bstar)]
    tau.flags.writeable = False
    return tau, int(tau_inf)


def _poly_grids(field, polys):
    """Yield (block, values): a slice of element indices of F_q and each
    integer polynomial of ``polys`` at those elements, block after block.
    F_p is one block.  Over F_{p^2}, P(a + b w) = sum_k D_k(a) (b w)^k with
    D_k = P^(k) / k! and w^2 = nu, and a block is rows a of the (p, p) grid
    (``_blocks``): there the F_p part (even k) and the w part (odd k) are
    each one matrix product of D_k(a) nu^(k // 2) (rows a) by b^k (columns
    b); both factors are built once, for every a and b."""
    p = field.p
    a = np.arange(p, dtype=np.int64)
    if field.q == p:
        yield slice(0, p), [_poly_eval(field, coeffs, a) for coeffs in polys]
        return
    base = field_for(p, False)
    Ds = [np.array([_poly_eval(base, [comb(i, k) * c for i, c in enumerate(coeffs)][k:], a)
                    * pow(field.nu, k // 2, p) % p for k in range(len(coeffs))])
          for coeffs in polys]
    V = np.ones((max(map(len, polys)), p), dtype=np.int64)
    for k in range(1, len(V)):
        V[k] = V[k - 1] * a % p
    for rows in _blocks(p, p):
        values = []
        for D in Ds:
            W = V[:len(D)]
            values.append((D[0::2, rows].T @ W[0::2] % p * p
                           + D[1::2, rows].T @ W[1::2] % p).ravel())
        yield slice(rows.start * p, rows.stop * p), values


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
    from numpy import fft      # numpy.fft is not loaded by ``import numpy``
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


def _check_good_prime(family: SurfaceFamily, p: int):
    if p in family.bad_primes():
        raise BadPrimeError(
            f"{family.label}: {p} is not a good prime (bad set {sorted(family.bad_primes())})")


def _ratio(field, x: int, y: int) -> int:
    """x / y for integers x, y as an element index, -1 (infinity) when p | y."""
    return -1 if y % field.p == 0 else field.constant(x * pow(y, -1, field.p))


def _mobius_on_cubes(field, mobius) -> np.ndarray:
    """f(s) = (a s + b) / (c s + d) at the cubes s = g^(3j) of F_q^*, as
    element indices with -1 for infinity: a s = g^(log a + 3j), and a
    constant of F_p adds to an index mod q in both fields."""
    E, L, n, q = field.exp, field.log, field.q - 1, field.q
    logs = np.arange(0, n, 3)
    a, b, c, d = (field.constant(x) for x in mobius)
    num = (np.where(a == 0, 0, E[(L[a] + logs) % n]) + b) % q
    den = (np.where(c == 0, 0, E[(L[c] + logs) % n]) + d) % q
    f = E[(L[num] - L[den]) % n]
    f[num == 0] = 0
    f[den == 0] = -1
    return f


def frobenius_trace(family: SurfaceFamily, p: int, squared: bool = False) -> int:
    """Tr(Frob_q) = - sum of local traces over P^1(F_q), q = p or p^2."""
    _check_good_prime(family, p)
    field = field_for(p, squared)
    tau, tau_inf = fiber_trace_table(family.level, p, squared)
    if (field.q - 1) % 3:                   # r -> r^3 and f permute P^1(F_q)
        return -int(tau.sum()) - tau_inf

    def total(points):                      # point -1 is infinity
        return int(np.where(points < 0, tau_inf, tau[points]).sum())

    a, b, c, d = family.mobius
    ends = np.array([_ratio(field, b, d), _ratio(field, a, c)])    # f(0), f(infinity)
    return -(3 * total(_mobius_on_cubes(field, family.mobius)) + total(ends))


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
    groups, in catalog order, primes ascending.  The traces are computed
    prime by prime, so the (at most four) fiber-trace tables of one prime
    are built once and stay cached while every family reads them."""
    families = [(g.name, fam) for g in groups for fam in surface_families(g)]
    pairs = {(i, p): trace_pair(fam, p)
             for p in primes for i, (_, fam) in enumerate(families)}
    return [(name, fam.label, p, *pairs[i, p])
            for i, (name, fam) in enumerate(families) for p in primes]


CSV_HEADER = "group,parameterization,p,tr_p,tr_p2"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"
