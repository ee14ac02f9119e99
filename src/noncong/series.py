"""Exact formal Laurent/Puiseux series in q**(1/mu) over the rationals.

Series are immutable, arithmetic is exact (Fraction coefficients, no
rounding), and every operation records the truncation order to which the
result is valid.  Requesting a coefficient past that order raises
PrecisionError instead of silently returning zero.

The module also provides Dedekind eta expansions (pentagonal number
theorem), eta quotients with fractional q-power prefactors, formal n-th
roots, and the weight-3 Eisenstein series 1 + 12*sum((sigma(3n)-3*sigma(n))q^n.

Beside the series over Q, ``eta_product_mod`` and ``cube_roots_mod`` work
over Z/m (m prime to 3): eta products, and cube roots of power series with
constant term 1.  Newton iteration for w = u^(-1/3) divides only by 3
(Brent-Kung, JACM 1978), so it runs mod p^2 where the Miller recurrence,
which divides by every index n, cannot.  One Newton gives two roots: u w^2
is the cube root of u and, for v with u v = g^3, g w is that of v; the two
basis forms of a group are such a pair.  Both take a batch: an int64 matrix
with one row of residues per modulus, so one run multiplies the series mod
every p^2 at once.  Each product is one float64 rfft/irfft along the rows,
made exact by a rounding guard (``exact_integers``, shared with the
fiber-trace kernel) and by splitting large residues into limbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm


class PrecisionError(ArithmeticError):
    """A coefficient beyond the known truncation order was requested."""


def integer_nth_root(a: int, n: int) -> int | None:
    """Exact n-th root of a nonnegative integer, or None."""
    if a < 0:
        return None
    if a in (0, 1):
        return a
    # Newton iteration on integers.
    x = 1 << (-(-a.bit_length() // n))
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == a else None


def rational_nth_root(x: Fraction, n: int) -> Fraction | None:
    """Exact rational n-th root of x (real root; for even n, x >= 0)."""
    sign = 1
    if x < 0:
        if n % 2 == 0:
            return None
        sign, x = -1, -x
    p = integer_nth_root(x.numerator, n)
    q = integer_nth_root(x.denominator, n)
    if p is None or q is None:
        return None
    return Fraction(sign * p, q)


# ---------------------------------------------------------------------------
# J.C.P. Miller recurrence.  For u = 1 + u_1 q + ... the power v = u^alpha
# satisfies n*v_n = sum_{k=1..n} ((alpha+1)k - n) u_k v_{n-k}; this costs one
# multiplication worth of work and, for sparse u (pentagonal series), far less.
# For integer u and alpha = a/b, v_n lies in Z[1/b]: a prime l | b divides the
# denominator of binomial(a/b, j) exactly j*v_l(b) + v_l(j!) times.  So
# B_n = b^(c_n) v_n is an integer for c_n = n + v_l(n!), l the least prime of
# b (c_n = 0 for b = 1), and b^(c_n) times the recurrence reads
#   n*B_n = sum_k ((a+b)k - nb) u_k B_{n-k} b^(c_n - c_{n-k} - 1),
# every exponent at least k - 1.  A unit with denominators is first made
# integral: for d the lcm of its denominators, u(q) = U(q/d) with the
# integers U_k = d^k u_k, so one integer recurrence serves every inverse and
# root of every unit, and v_n = B_n / (b^(c_n) d^n).  Positive integer
# powers are products.


def _scale_exponents(b: int, length: int) -> list[int]:
    """c_n = n + v_l(n!) for n < length and l the least prime of b; all 0
    for b = 1."""
    c = [0] * length
    if b == 1:
        return c
    ell = next(d for d in range(2, b + 1) if b % d == 0)
    for n in range(1, length):
        m, e = n, 1
        while m % ell == 0:
            m //= ell
            e += 1
        c[n] = c[n - 1] + e
    return c


def _miller_power(terms: list[tuple[int, int]], a: int, b: int, length: int,
                  head=(1,)) -> list[int]:
    """B_n = b^(c_n) [q^n] (1 + sum u_k q^k)^(a/b) for n < length, with c_n
    from ``_scale_exponents``: integers for any integer a and b >= 1 prime
    to a.  ``terms`` lists the nonzero (k, u_k), k >= 1 ascending; the
    recurrence resumes after the known values ``head`` = (B_0, B_1, ...)."""
    out = list(head)
    c = _scale_exponents(b, length)
    pw = [1]
    for _ in range(1, c[-1] if c else 0):
        pw.append(pw[-1] * b)
    ab = a + b
    for n in range(len(out), length):
        s = 0
        if b == 1:      # every power of b is 1
            for k, uk in terms:
                if k > n:
                    break
                s += (ab * k - n) * uk * out[n - k]
        else:
            top = c[n] - 1
            for k, uk in terms:
                if k > n:
                    break
                s += (ab * k - n * b) * uk * out[n - k] * pw[top - c[n - k]]
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError("power recurrence lost exactness")
        out.append(q)
    return out


def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i 2^(8 width i) for ints |c_i| < 2^(8 width), from one byte
    string of the positive and one of the negative coefficients."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _convolve(a: list[int], b: list[int], length: int) -> list[int]:
    """The integer product sum a_i b_j x^(i+j) through x^(length-1), by
    Kronecker substitution (Harvey, JSC 2009): both lists are packed into
    one integer at x = 2^s, multiplied once, and the low s * length bits
    are read back as balanced digits.  Every coefficient of the product is
    below 2^(s-1) in absolute value, so a digit at or above 2^(s-1) is
    negative and borrows 1 from the next."""
    a, b = a[:length], b[:length]
    top = max(map(abs, a), default=0), max(map(abs, b), default=0)
    if length <= 0 or not all(top):
        return [0] * max(length, 0)
    bits = top[0].bit_length() + top[1].bit_length() + min(len(a), len(b)).bit_length() + 1
    width = -(-bits // 8)
    digits = ((_pack(a, width) * _pack(b, width)) & ((1 << (8 * width * length)) - 1)
              ).to_bytes(width * length, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out, borrow = [], 0
    for i in range(0, width * length, width):
        d = int.from_bytes(digits[i:i + width], "little") + borrow
        borrow = d >= half
        out.append(d - full if borrow else d)
    return out


def _rational_convolve(a, b, length: int) -> list:
    """The product of two lists of rationals through x^(length-1), as one
    ``_convolve``: over a common denominator of each factor, the product is
    of integers.  Entries are ints when both factors are integral."""
    d1 = lcm(*(x.denominator for x in a))
    d2 = lcm(*(x.denominator for x in b))
    prod = _convolve([x.numerator * (d1 // x.denominator) for x in a],
                     [x.numerator * (d2 // x.denominator) for x in b], length)
    if d1 * d2 > 1:
        prod = [Fraction(c, d1 * d2) for c in prod]
    return prod


class PuiseuxSeries:
    """A truncated series sum c_i q^((lo+i)/mu), exact coefficients.

    Invariants: mu minimal for the nonzero exponents, leading coefficient
    nonzero (unless the series is zero up to truncation), coefficients
    known exactly for all exponents below trunc/mu.
    """

    __slots__ = ("mu", "lo", "coeffs", "trunc")

    def __init__(self, mu: int, lo: int, coeffs, trunc: int):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > trunc - lo:
            coeffs = coeffs[: trunc - lo]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lo += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            object.__setattr__(self, "mu", 1)
            t = -(-trunc // mu)  # ceil
            object.__setattr__(self, "lo", t)
            object.__setattr__(self, "coeffs", ())
            object.__setattr__(self, "trunc", t)
            return
        g = mu
        for i, c in enumerate(coeffs):
            if c:
                g = gcd(g, lo + i)
                if g == 1:
                    break
        if g > 1:
            coeffs = coeffs[::g] if lo % g == 0 else None
            assert coeffs is not None
            lo //= g
            trunc = -(-trunc // g)
            mu //= g
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int = 10 ** 9, mu: int = 1) -> "PuiseuxSeries":
        return cls(mu, trunc, [], trunc)

    @classmethod
    def one(cls, trunc: int) -> "PuiseuxSeries":
        return cls(1, 0, [1], trunc)

    @classmethod
    def constant(cls, c, trunc: int) -> "PuiseuxSeries":
        return cls(1, 0, [Fraction(c)], trunc)

    @classmethod
    def from_terms(cls, terms, mu: int = 1, trunc: int | None = None) -> "PuiseuxSeries":
        """Build from (index, coefficient) pairs; indices in 1/mu units."""
        terms = [(int(n), Fraction(c)) for n, c in terms]
        if not terms:
            return cls.zero(trunc if trunc is not None else 10 ** 9, mu)
        lo = min(n for n, _ in terms)
        hi = max(n for n, _ in terms)
        if trunc is None:
            trunc = hi + 1
        coeffs = [Fraction(0)] * (trunc - lo)
        for n, c in terms:
            if n < trunc:
                coeffs[n - lo] += c
        return cls(mu, lo, coeffs, trunc)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero series has no valuation")
        return Fraction(self.lo, self.mu)

    @property
    def truncation_exponent(self) -> Fraction:
        return Fraction(self.trunc, self.mu)

    def coefficient(self, n: int) -> Fraction:
        """Exact coefficient of q^(n/mu); PrecisionError beyond truncation."""
        if n >= self.trunc:
            raise PrecisionError(
                f"insufficient precision: q^({n}/{self.mu}) beyond truncation "
                f"q^({self.trunc}/{self.mu})")
        if n < self.lo or n >= self.lo + len(self.coeffs):
            return Fraction(0)
        return self.coeffs[n - self.lo]

    def coefficient_at(self, exponent) -> Fraction:
        """Exact coefficient of q^exponent for an arbitrary rational exponent."""
        e = Fraction(exponent)
        if e >= Fraction(self.trunc, self.mu):
            raise PrecisionError(f"insufficient precision: q^{e} beyond truncation")
        n = e * self.mu
        if n.denominator != 1:
            return Fraction(0)
        return self.coefficient(int(n))

    def terms(self):
        """Known nonzero terms as (exponent, coefficient), exponents ascending."""
        return [(Fraction(self.lo + i, self.mu), c)
                for i, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.mu, self.lo, self.coeffs, self.trunc) == \
               (other.mu, other.lo, other.coeffs, other.trunc)

    def __hash__(self):
        return hash((self.mu, self.lo, self.coeffs, self.trunc))

    def agrees_with(self, other: "PuiseuxSeries", through=None) -> bool:
        """Equality of all coefficients known to both series (optionally only
        for exponents < through)."""
        bound = min(self.truncation_exponent, other.truncation_exponent)
        if through is not None:
            bound = min(bound, Fraction(through))
        m = lcm(self.mu, other.mu)
        start = min(self.lo * (m // self.mu), other.lo * (m // other.mu), 0)
        for n in range(start, ceil(bound * m)):
            e = Fraction(n, m)
            if self.coefficient_at(e) != other.coefficient_at(e):
                return False
        return True

    def __repr__(self):
        parts = []
        for e, c in self.terms()[:6]:
            parts.append(f"{c}*q^({e})")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^({self.truncation_exponent}))>"

    # -- helpers -----------------------------------------------------------

    def _with_mu(self, m: int) -> tuple[int, list, int]:
        """(lo, dense coeffs, trunc) re-indexed in 1/m units (mu | m)."""
        k = m // self.mu
        return self.lo * k, _stride(list(self.coeffs), k), self.trunc * k

    def truncate(self, trunc: int) -> "PuiseuxSeries":
        """Restrict knowledge to exponents < trunc/mu."""
        if trunc > self.trunc:
            raise PrecisionError("cannot extend a series by truncating")
        return PuiseuxSeries(self.mu, self.lo, list(self.coeffs), trunc)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):  # exact: known past self
            other = PuiseuxSeries.constant(other, max(self.trunc, 0) + 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        m = lcm(self.mu, other.mu)
        lo1, c1, t1 = self._with_mu(m)
        lo2, c2, t2 = other._with_mu(m)
        t = min(t1, t2)
        lo = min(lo1, lo2) if (c1 or c2) else t
        out = [Fraction(0)] * max(0, t - lo)
        for base, cs in ((lo1, c1), (lo2, c2)):
            for i, c in enumerate(cs):
                if c and base + i < t:
                    out[base + i - lo] += c
        return PuiseuxSeries(m, lo, out, t)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.mu, self.lo, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "PuiseuxSeries":
        c = Fraction(c)
        if c == 0:
            return PuiseuxSeries.zero(self.trunc, self.mu)
        return PuiseuxSeries(self.mu, self.lo, [c * x for x in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        m = lcm(self.mu, other.mu)
        lo1, c1, t1 = self._with_mu(m)
        lo2, c2, t2 = other._with_mu(m)
        if self.is_zero or other.is_zero:
            # 0 * (q^v2 * unit) is zero, known through min(t1 + lo2, t2 + lo1)
            lo1 = t1 if self.is_zero else lo1
            lo2 = t2 if other.is_zero else lo2
            return PuiseuxSeries.zero(min(t1 + lo2, t2 + lo1), 1)
        t = min(t1 + lo2, t2 + lo1)
        return PuiseuxSeries(m, lo1 + lo2, _rational_convolve(c1, c2, t - lo1 - lo2), t)

    __rmul__ = __mul__

    def _power(self, a: int, b: int) -> "PuiseuxSeries":
        """self^(a/b) for nonzero self, b >= 1 prime to a: the leading
        coefficient's rational b-th root to the a-th power times the unit
        raised by the integer Miller recurrence, re-indexed in 1/(b mu)
        units.  A unit in q^s (s the gcd of its exponents) is raised as a
        series in q^s and strided back."""
        c0 = self.coeffs[0]
        r0 = rational_nth_root(c0, b)
        if r0 is None:
            raise ValueError(f"leading coefficient {c0} is not a rational {b}-th power")
        length = self.trunc - self.lo
        unit = [c / c0 for c in self.coeffs]
        s = gcd(*(k for k, x in enumerate(unit) if x)) or 1
        d = lcm(*(x.denominator for x in unit))
        terms = [(k // s, x.numerator * (d ** (k // s) // x.denominator))
                 for k, x in enumerate(unit) if k and x]
        steps = -(-length // s)
        out = [Fraction(v, b ** c * d ** n) for n, (v, c) in
               enumerate(zip(_miller_power(terms, a, b, steps), _scale_exponents(b, steps)))]
        scale = r0 ** a
        # exponents (lo a + b s i)/(b mu); known up to relative q-order length/mu
        return PuiseuxSeries(self.mu * b, self.lo * a, _stride([scale * v for v in out], s * b),
                             self.lo * a + b * length)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return PuiseuxSeries.one(self.trunc - self.lo)
        if self.is_zero:
            if e < 0:
                raise ValueError("not invertible: zero leading coefficient")
            return PuiseuxSeries.zero(self.trunc + (e - 1) * self.lo, 1)
        if e < 0:
            return self._power(e, 1)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def invert(self) -> "PuiseuxSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero:
            raise ValueError("not invertible: zero leading coefficient")
        return self._power(-1, 1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1) / Fraction(other))
        return self * other.invert()

    def nth_root(self, n: int) -> "PuiseuxSeries":
        """Formal n-th root; the leading coefficient must be a rational n-th
        power (the real positive root is chosen for positive leads)."""
        if n < 1:
            raise ValueError("root degree must be a positive integer")
        if n == 1:
            return self
        if self.is_zero:
            raise ValueError("zero series has no n-th root at finite precision")
        return self._power(1, n)

    def substitute_qpower(self, k: int) -> "PuiseuxSeries":
        """The series f(q^k) for a positive integer k."""
        if k < 1:
            raise ValueError("substitution power must be positive")
        return PuiseuxSeries(self.mu, self.lo * k, _stride(list(self.coeffs), k),
                             self.trunc * k)

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        """Golden-file format: one `n/mu<TAB>num/den` line per nonzero term."""
        lines = []
        for i, c in enumerate(self.coeffs):
            if c:
                lines.append(f"{self.lo + i}/{self.mu}\t{c.numerator}/{c.denominator}")
        return "\n".join(lines) + ("\n" if lines else "")


def _stride(coeffs: list, k: int) -> list:
    if k == 1 or not coeffs:
        return coeffs
    out = [Fraction(0)] * ((len(coeffs) - 1) * k + 1)
    for i, c in enumerate(coeffs):
        out[i * k] = c
    return out


def parse_series(text: str, trunc: int | None = None) -> PuiseuxSeries:
    """Inverse of PuiseuxSeries.serialize (mu is taken from the lines)."""
    terms = []
    mu = 1
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        expo, coeff = line.split("\t")
        n, m = expo.split("/")
        num, den = coeff.split("/")
        mu = lcm(mu, int(m))
        terms.append((Fraction(int(n), int(m)), Fraction(int(num), int(den))))
    idx_terms = [(int(e * mu), c) for e, c in terms]
    return PuiseuxSeries.from_terms(idx_terms, mu=mu, trunc=trunc)


# ---------------------------------------------------------------------------
# Dedekind eta machinery


def pentagonal_terms(m: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of prod (1 - q^(m n)) = sum (-1)^k q^(m k(3k-1)/2)."""
    terms = []
    k = 0
    while True:
        for kk in ((k, -k) if k else (0,)):
            e = m * kk * (3 * kk - 1) // 2
            if e < order:
                terms.append((e, -1 if k % 2 else 1))
        if m * k * (3 * k - 1) // 2 >= order and k > 0:
            break
        k += 1
    terms.sort()
    return [t for t in terms if t[0] < order]


def eta_expansion(m: int, order: int) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^(m n)) truncated at q^order.

    This is eta(m z) without its q^(m/24) prefactor; eta quotients track
    the prefactor separately.
    """
    if m < 1 or order < 1:
        raise ValueError("require m >= 1 and order >= 1")
    return PuiseuxSeries.from_terms(pentagonal_terms(m, order), mu=1, trunc=order)


# The longest coefficient list of each power prod (1 - q^n)^e computed so
# far, keyed by the exponent e: a longer request resumes the recurrence at its
# end, and every scale m reads the same list with stride m, as
# prod (1 - q^(m n))^e is nonzero only at multiples of m.
_ETA_POWERS: dict[int, list[int]] = {}


def _eta_power_base(e: int, length: int) -> list[int]:
    """At least the first `length` coefficients of prod (1 - q^n)^e."""
    held = _ETA_POWERS.get(e, [1])
    if len(held) < length:
        terms = [(k, c) for k, c in pentagonal_terms(1, length) if k > 0]
        held = _ETA_POWERS[e] = _miller_power(terms, e, 1, length, held)
    return held


def eta_power_coeffs(m: int, e: int, length: int) -> list[int]:
    """Integer coefficients of prod (1 - q^(m n))^e through q^(length-1),
    prefactor excluded."""
    base = -(-length // m)
    out = [0] * length
    out[::m] = _eta_power_base(e, base)[:base]
    return out


# ---------------------------------------------------------------------------
# power series mod m, for the mod-p^2 congruence tests.  A batch is an int64
# matrix with one row of residues per modulus; the moduli travel as an int64
# column beside it.  numpy is imported on first use: loading it ahead of the
# package's other modules raised the peak RSS of `import noncong` by about
# 1 MiB.

# Bound on the coefficients of one float64 FFT product, length * (m-1)^2.
# Measured worst rounding errors: 0.0015 at 2^42 and 0.02 at 2^45.3 with
# every entry m - 1; 0.09 at 2^50 and 0.38 at 2^52 on random residues.  From
# 2^53 on the float64 spacing reaches 1, so the rounding margin can read 0
# while the rounded value is wrong (by 16 at 2^56).  Below 2^46 the error
# stays under a tenth of the guard's 0.25.
FFT_EXACT_BOUND = 2 ** 46

# moduli from 2^31 on overflow the int64 product of two residues
MODULUS_LIMIT = 2 ** 31


def exact_integers(values: np.ndarray) -> np.ndarray:
    """Round FFT output whose exact values are integers, refusing it when
    any entry lies 0.25 or more from the nearest integer."""
    import numpy as np
    error = np.rint(values)
    rounded = error.astype(np.int64)
    error -= values             # in place: one float temporary beside the result
    margin = float(np.max(np.abs(error, out=error)))
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin:.3g} reached 0.25")
    return rounded


def _limbs(length: int, m_max: int) -> tuple[int, int]:
    """(count, bits): the fewest limbs of `bits` bits that hold residues
    below m_max and keep every coefficient of a product of `length` terms
    under FFT_EXACT_BOUND, counting the `count` limb pairs that add up on
    one diagonal."""
    need = (m_max - 1).bit_length()
    count = 1
    while True:
        bits = -(-need // count)
        top = min(m_max - 1, (1 << bits) - 1)
        if count * length * top * top < FFT_EXACT_BOUND:
            return count, bits
        count += 1


def _mul_mod(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a*b mod (m, x^n), row by row, for n = a.shape[1] <= b.shape[1] and
    residue matrices a, b with one modulus per row in the column m.

    Each product is one rfft/irfft along the rows, exact by the rounding
    guard; residues too large for that are split into limbs, whose
    diagonal sums are recombined mod m."""
    import numpy as np
    from numpy import fft      # numpy.fft is not loaded by ``import numpy``
    n = a.shape[1]
    size = 1 << (2 * n - 2).bit_length()
    count, bits = _limbs(n, int(m.max()))
    mask = (1 << bits) - 1

    def spectra(x):
        return [fft.rfft((x >> (bits * i)) & mask, size) for i in range(count)]

    A = spectra(a)
    B = A if b is a else spectra(b[:, :n])
    out = None
    for s in range(2 * count - 1):
        lo, hi = max(0, s - count + 1), min(s, count - 1)
        spec = A[lo] * B[s - lo]
        for i in range(lo + 1, hi + 1):
            spec += A[i] * B[s - i]
        c = exact_integers(fft.irfft(spec, size)[:, :n]) % m
        if s:
            scale = np.array([[pow(2, bits * s, int(x))] for x in m[:, 0]])
            c = c * scale % m
        out = c if out is None else (out + c) % m
    return out


def _modulus_column(moduli) -> np.ndarray:
    import numpy as np
    if not all(1 < x < MODULUS_LIMIT for x in moduli):
        raise ValueError(f"moduli must lie in 2..{MODULUS_LIMIT - 1}")
    return np.array(moduli, dtype=np.int64).reshape(-1, 1)


def cube_roots_mod(u: np.ndarray, g: np.ndarray, moduli) -> tuple[np.ndarray, np.ndarray]:
    """(u^(1/3), g u^(-1/3)) mod (m, x^n) for each row of two residue
    matrices with u_0 = 1, the row's modulus m prime to 3, n = u.shape[1]:
    the cube root of u with constant term 1 and, where u v = g^3, that of v.

    Newton doubles the precision of w = u^(-1/3) with
    w <- w + w(1 - u w^3)/3, for every row at once; the roots are u w^2
    and g w.
    """
    import numpy as np
    m = _modulus_column(moduli)
    rows, n = u.shape
    minus_third = np.array([[x - pow(3, -1, x)] for x in moduli], dtype=np.int64)
    w = np.zeros((rows, n), dtype=np.int64)
    w[:, 0] = 1
    k0 = 1
    while k0 < n:
        k = min(2 * k0, n)
        wk = w[:, :k]
        # 1 - u w^3 vanishes below x^k0; its terms from x^k0 on are -(u w^3)
        uw3 = _mul_mod(u[:, :k], _mul_mod(_mul_mod(wk, wk, m), wk, m), m)
        w[:, k0:k] = _mul_mod(uw3[:, k0:], wk, m) * minus_third % m
        k0 = k
    return _mul_mod(u, _mul_mod(w, w, m), m), _mul_mod(g, w, m)


def eta_product_ints(factors, length: int) -> list[int]:
    """Integer coefficients of prod (1 - x^(k n))^e over the (k, e) in
    factors, through x^(length-1), from the cached exact eta powers."""
    prod = [1]
    for k, e in factors:
        prod = _convolve(prod, eta_power_coeffs(k, e, length), length)
    return prod


def eta_product_mod(factors, length: int, moduli) -> np.ndarray:
    """prod (1 - x^(k n))^e over the (k, e) in factors, mod (m, x^length)
    for every m in moduli: one int64 row per modulus, reduced from the
    ceil(length / k) exact integer coefficients of prod (1 - x^n)^e (cached
    per process) and spread with stride k."""
    import numpy as np
    m = _modulus_column(moduli)
    u = None
    for k, e in factors:
        base = -(-length // k)
        exact = np.array(_eta_power_base(e, base)[:base], dtype=object)
        f = np.zeros((len(moduli), length), dtype=np.int64)
        f[:, ::k] = [exact % x for x in moduli]
        u = f if u is None else _mul_mod(u, f, m)
    return u


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product prod eta(m z)^e, stored as (scale, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        scales = [m for m, _ in self.factors]
        if len(set(scales)) != len(scales):
            raise ValueError("eta quotient scales must be distinct")
        if any(m < 1 for m in scales):
            raise ValueError("eta quotient scales must be positive")

    @classmethod
    def of(cls, spec: dict[int, int]) -> "EtaQuotient":
        return cls(tuple(sorted((m, e) for m, e in spec.items() if e)))

    @property
    def prefactor24(self) -> int:
        """24 times the q-power prefactor, i.e. sum m*e."""
        return sum(m * e for m, e in self.factors)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(e for _, e in self.factors), 2)

    def expansion(self, order: int) -> PuiseuxSeries:
        """Exact expansion including the q^(sum m*e / 24) prefactor.

        ``order`` is the number of q-integer coefficients of the eta product
        carried (the result is valid through q^(prefactor + order)).
        """
        pre = Fraction(self.prefactor24, 24)
        mu = pre.denominator
        prod = eta_product_ints(self.factors, order)
        lo = pre.numerator
        coeffs = _stride([Fraction(c) for c in prod], mu)
        return PuiseuxSeries(mu, lo, coeffs, lo + mu * order)

    def __str__(self):
        return ",".join(f"{m}:{e}" for m, e in self.factors)

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse the 'm:e,m:e' CLI syntax."""
        spec = {}
        for part in text.split(","):
            m, _, e = part.partition(":")
            try:
                m, e = int(m), int(e)
            except ValueError:
                raise ValueError(f"{part!r} is not a pair scale:exponent "
                                 "like '2:-6'") from None
            if m in spec:
                raise ValueError(f"scale {m} is given twice")
            spec[m] = e
        return cls.of(spec)


# ---------------------------------------------------------------------------
# divisor sums and the weight-3 Eisenstein series used by the level-432 newform


def sigma_table(order: int) -> list[int]:
    """sigma(n) for 0 <= n < order by sieve (index 0 unused)."""
    sig = [0] * order
    for d in range(1, order):
        for n in range(d, order, d):
            sig[n] += d
    return sig


def eisenstein_e6_ints(order: int) -> list[int]:
    """Coefficients 1, 12 (sigma(3n) - 3 sigma(n)) of E6 for n < order."""
    sig = sigma_table(3 * order)
    return [1] + [12 * (sig[3 * n] - 3 * sig[n]) for n in range(1, order)]


def eisenstein_e6(order: int) -> PuiseuxSeries:
    """E6 = 1 + 12 sum_{n>=1} (sigma(3n) - 3 sigma(n)) q^n, through q^(order-1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return PuiseuxSeries.from_terms(enumerate(eisenstein_e6_ints(order)), mu=1,
                                    trunc=order)
