"""Exact formal Laurent/Puiseux series in q**(1/mu) over the rationals.

Series are immutable, arithmetic is exact (Fraction coefficients, no
rounding), and every operation records the truncation order to which the
result is valid.  Requesting a coefficient past that order raises
PrecisionError instead of silently returning zero.

The module also provides Dedekind eta expansions (pentagonal number
theorem), eta quotients with fractional q-power prefactors, formal n-th
roots, and the weight-3 Eisenstein series 1 + 12*sum((sigma(3n)-3*sigma(n))q^n.

Beside the series over Q, ``eta_product_mod`` and ``cube_root_mod`` work
over Z/m (m prime to 3): eta products, and cube roots of power series with
constant term 1.  Newton iteration for w = u^(-1/3) divides only by 3
(Brent-Kung, JACM 1978), so it runs mod p^2 where the Miller recurrence,
which divides by every index n, cannot.  Products are int64 convolutions
reduced mod m after each product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

ExactRational = Fraction


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
# J.C.P. Miller recurrences.  For u = 1 + u_1 q + ... the power v = u^alpha
# satisfies n*v_n = sum_{k=1..n} ((alpha+1)k - n) u_k v_{n-k}; this costs one
# multiplication worth of work and, for sparse u (pentagonal series), far less.


def _miller_int_power(u_nz: list[tuple[int, int]], e: int, length: int) -> list[int]:
    """Integer coefficients of (1 + sum u_k q^k)^e for integer e (any sign).

    ``u_nz`` lists the nonzero (k, u_k) with k >= 1.
    """
    v = [0] * length
    if length == 0:
        return v
    v[0] = 1
    for n in range(1, length):
        s = 0
        for k, uk in u_nz:
            if k > n:
                break
            s += ((e + 1) * k - n) * uk * v[n - k]
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError("integer power recurrence lost exactness")
        v[n] = q
    return v


def _miller_root_int(u: list[int], a: int, b: int, length: int) -> list[Fraction]:
    """Coefficients of (1 + u_1 q + ...)^(a/b) for integer u, prime b.

    Values live in Z[1/b]; they are carried as (numerator, b-exponent)
    pairs so the recurrence stays in integer arithmetic.
    """
    if length == 0:
        return []
    nums = [1] + [0] * (length - 1)
    exps = [0] * length
    ab = a + b
    pow_b = [1]
    for n in range(1, length):
        kmax = min(n, len(u) - 1)
        emax = 0
        for k in range(1, kmax + 1):
            if u[k] and exps[n - k] > emax:
                emax = exps[n - k]
        s = 0
        for k in range(1, kmax + 1):
            uk = u[k]
            if not uk:
                continue
            shift = emax - exps[n - k]
            while len(pow_b) <= shift:
                pow_b.append(pow_b[-1] * b)
            s += (ab * k - n * b) * uk * nums[n - k] * pow_b[shift]
        # v_n = s / (n * b^(emax+1)); move the b-part of n into the exponent.
        e = emax + 1
        m = n
        while m % b == 0:
            m //= b
            e += 1
        q, r = divmod(s, m)
        if r:
            raise ArithmeticError("root recurrence lost exactness")
        while q and q % b == 0:
            q //= b
            e -= 1
        nums[n] = q
        exps[n] = e if q else 0
    return [Fraction(nums[n], b ** exps[n]) if exps[n] > 0 else Fraction(nums[n])
            for n in range(length)]


def _miller_frac_power(u: list[Fraction], alpha: Fraction, length: int) -> list[Fraction]:
    """Fraction fallback for (1 + u_1 q + ...)^alpha."""
    v = [Fraction(0)] * length
    if length == 0:
        return v
    v[0] = Fraction(1)
    a1 = alpha + 1
    for n in range(1, length):
        s = Fraction(0)
        for k in range(1, min(n, len(u) - 1) + 1):
            if u[k]:
                s += (a1 * k - n) * u[k] * v[n - k]
        v[n] = s / n
    return v


def _convolve(a: list, b: list, length: int) -> list:
    """Truncated convolution; stays in int when both inputs are int lists."""
    zero = 0 if (a and isinstance(a[0], int)) and (b and isinstance(b[0], int)) else Fraction(0)
    out = [zero] * length
    for i, ai in enumerate(a):
        if not ai or i >= length:
            continue
        jmax = min(len(b), length - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


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

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

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
        for n in range(start, int(bound * m)):
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
        if k == 1:
            return self.lo, list(self.coeffs), self.trunc
        coeffs = [Fraction(0)] * (len(self.coeffs) * k - (k - 1) if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            coeffs[i * k] = c
        return self.lo * k, coeffs, self.trunc * k

    def truncate(self, trunc: int) -> "PuiseuxSeries":
        """Restrict knowledge to exponents < trunc/mu."""
        if trunc > self.trunc:
            raise PrecisionError("cannot extend a series by truncating")
        return PuiseuxSeries(self.mu, self.lo, list(self.coeffs), trunc)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other, self.trunc * 2)  # constants exact
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
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other, self.trunc * 2)
        return self.__add__(-other)

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
        length = t - lo1 - lo2
        if all(x.denominator == 1 for x in c1) and all(x.denominator == 1 for x in c2):
            prod = _convolve([x.numerator for x in c1], [x.numerator for x in c2], length)
        else:
            prod = _convolve(c1, c2, length)
        return PuiseuxSeries(m, lo1 + lo2, prod, t)

    __rmul__ = __mul__

    def _unit_power(self, e: int) -> "PuiseuxSeries":
        """self**e for nonzero self and any integer e, via the Miller recurrence."""
        c0 = self.coeffs[0]
        length = self.trunc - self.lo
        unit = [c / c0 for c in self.coeffs] + [Fraction(0)] * (length - len(self.coeffs))
        if all(x.denominator == 1 for x in unit):
            nz = [(k, int(unit[k])) for k in range(1, length) if unit[k]]
            out = [Fraction(v) for v in _miller_int_power(nz, e, length)]
        else:
            out = _miller_frac_power(unit, Fraction(e), length)
        scale = c0 ** e
        out = [scale * v for v in out]
        return PuiseuxSeries(self.mu, self.lo * e, out, self.lo * e + length)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return PuiseuxSeries.one(self.trunc - self.lo)
        if self.is_zero:
            if e < 0:
                raise ValueError("not invertible: zero leading coefficient")
            return PuiseuxSeries.zero(self.trunc + (e - 1) * self.lo, 1)
        return self._unit_power(e)

    def invert(self) -> "PuiseuxSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero:
            raise ValueError("not invertible: zero leading coefficient")
        return self._unit_power(-1)

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
        c0 = self.coeffs[0]
        r0 = rational_nth_root(c0, n)
        if r0 is None:
            raise ValueError(f"leading coefficient {c0} is not a rational {n}-th power")
        length = self.trunc - self.lo
        unit = [c / c0 for c in self.coeffs] + [Fraction(0)] * (length - len(self.coeffs))
        is_prime_n = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        if is_prime_n and all(x.denominator == 1 for x in unit):
            root = _miller_root_int([int(x) for x in unit], 1, n, length)
        else:
            root = _miller_frac_power(unit, Fraction(1, n), length)
        out = [r0 * v for v in root]
        # exponents (lo + n*i)/(n*mu); known up to relative q-order length/mu
        return PuiseuxSeries(self.mu * n, self.lo,
                             _stride(out, n), self.lo + n * length)

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


def eta_power_coeffs(m: int, e: int, length: int) -> list[int]:
    """Integer coefficients of prod (1 - q^(m n))^e, prefactor excluded."""
    nz = [(k, c) for k, c in pentagonal_terms(m, length) if k > 0]
    return _miller_int_power(nz, e, length)


# ---------------------------------------------------------------------------
# power series mod m, for the mod-p^2 congruence tests.  numpy is imported on
# first use: loading it ahead of the package's other modules raised the peak
# RSS of `import noncong` by about 1 MiB.


def int64_fits(length: int, m: int) -> bool:
    """Whether a truncated product of `length` residues mod m is exact in
    int64: each coefficient sums at most `length` products below (m-1)^2."""
    return length * (m - 1) ** 2 < 2 ** 63


def _short_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b mod q^n for n = len(a) <= len(b), without the terms past q^n that
    a full convolution would also form: about 2n^2/3 products, not n^2."""
    import numpy as np
    n = len(a)
    if n <= 64:
        return np.convolve(a, b[:n])[:n]
    h = n // 2
    out = np.convolve(a[:h], b[:n])[:n]
    out[h:] += _short_product(a[h:], b[:n - h])
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a*b mod (m, q^len(a)) for int64 residue arrays."""
    n = len(a)
    assert int64_fits(n, m), f"int64 convolution overflow: {n} terms mod {m}"
    return _short_product(a, b) % m


def cube_root_mod(u: np.ndarray, m: int) -> np.ndarray:
    """u^(1/3) mod (m, q^len(u)) for residues u with u_0 = 1, 3 prime to m.

    Newton doubles the precision of w = u^(-1/3) with
    w <- w + w(1 - u w^3)/3; the root is u w^2.
    """
    import numpy as np
    n = len(u)
    minus_third = m - pow(3, -1, m)
    w = np.ones(1, dtype=np.int64)
    while len(w) < n:
        k0, k = len(w), min(2 * len(w), n)
        w = np.concatenate([w, np.zeros(k - k0, dtype=np.int64)])
        # 1 - u w^3 vanishes below q^k0; its terms from q^k0 on are -(u w^3)
        uw3 = _mul_mod(u[:k], _mul_mod(_mul_mod(w, w, m), w, m), m)
        w[k0:] = _mul_mod(uw3[k0:], w, m) * minus_third % m
    return _mul_mod(u, _mul_mod(w, w, m), m)


@lru_cache(maxsize=None)
def _eta_power_ints(k: int, e: int, length: int) -> tuple[int, ...]:
    return tuple(eta_power_coeffs(k, e, length))


def eta_product_mod(factors, length: int, m: int) -> np.ndarray:
    """prod (1 - x^(k n))^e over the (k, e) in factors, mod (m, x^length),
    as int64 residues reduced from each factor's exact integer coefficients
    (cached per process)."""
    import numpy as np
    u = None
    for k, e in factors:
        f = np.array([c % m for c in _eta_power_ints(k, e, length)], dtype=np.int64)
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

    def expansion(self, order: int, mu: int | None = None) -> PuiseuxSeries:
        """Exact expansion including the q^(sum m*e / 24) prefactor.

        ``order`` is the number of q-integer coefficients of the eta product
        carried (the result is valid through q^(prefactor + order)).
        """
        pre = Fraction(self.prefactor24, 24)
        mu0 = pre.denominator
        if mu is not None:
            if mu % mu0:
                raise ValueError(
                    f"prefactor q^{pre} not representable at ramification 1/{mu}")
            mu0 = mu
        prod = [1]
        for m, e in self.factors:
            prod = _convolve(prod, eta_power_coeffs(m, e, order), order)
        lo = int(pre * mu0)
        coeffs = _stride([Fraction(c) for c in prod], mu0)
        return PuiseuxSeries(mu0, lo, coeffs, lo + mu0 * order)

    def root_expansion(self, n: int, order: int) -> PuiseuxSeries:
        """n-th root of the quotient, valid through `order` coefficients of
        the underlying q-integer product."""
        return self.expansion(order).nth_root(n)

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


def divisor_sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("divisor_sigma needs a positive integer")
    total = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            power, term = 1, 1
            while m % d == 0:
                m //= d
                power *= d
                term += power
            total *= term
        d += 1
    if m > 1:
        total *= 1 + m
    return total


def sigma_table(order: int) -> list[int]:
    """sigma(n) for 0 <= n < order by sieve (index 0 unused)."""
    sig = [0] * order
    for d in range(1, order):
        for n in range(d, order, d):
            sig[n] += d
    return sig


def eisenstein_e6(order: int) -> PuiseuxSeries:
    """E6 = 1 + 12 sum_{n>=1} (sigma(3n) - 3 sigma(n)) q^n, through q^(order-1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    sig = sigma_table(3 * order)
    terms = [(0, 1)] + [(n, 12 * (sig[3 * n] - 3 * sig[n])) for n in range(1, order)]
    return PuiseuxSeries.from_terms(terms, mu=1, trunc=order)
