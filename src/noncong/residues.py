"""Power series and basis coefficients mod m.

``eta_product_mod`` and ``cube_roots_mod`` work over Z/m (m prime to 3):
eta products, and cube roots of power series with constant term 1.  Newton
iteration for w = u^(-1/3) divides only by 3 (Brent-Kung, JACM 1978), so it
runs mod p^2 where the Miller recurrence of ``series``, which divides by
every index n, cannot.  One Newton gives two roots: u w^2 is the cube root
of u and, for v with u v = g^3, g w is that of v; the two basis forms of a
group are such a pair.  Both take a batch: an int64 matrix with one row of
residues per modulus, so one run multiplies the series mod every p^2 at
once.  Each product is one float64 rfft/irfft along the rows, made exact by
a rounding guard (``exact_integers``, shared with the fiber-trace kernel)
and by splitting large residues into limbs.

``coefficient_residues`` gives the printed basis coefficients of a catalog
group mod a batch of moduli, for the mod-p^2 congruence tests, from the eta
factors' integer coefficients: as h1 h2 is an eta quotient for every
catalog group, one Newton gives both forms.  ``lattice_indices`` places
each printed index by ``catalog.lattice_map``, the map the exact series
use, which are the reference the residues are tested against.
"""

from __future__ import annotations

from .catalog import GroupRecord, lattice_map
from .series import _eta_power_base

# numpy after the package's modules, so that every noncong module a command
# loads compiles before numpy is imported: compiling one after numpy raised
# the peak RSS of the process (notes/decisions.md, "One module per
# coefficient domain")
import numpy as np
from numpy import fft      # numpy.fft is not loaded by ``import numpy``

# ---------------------------------------------------------------------------
# power series mod m.  A batch is an int64 matrix with one row of residues
# per modulus; the moduli travel as an int64 column beside it.

# Bound on the coefficients of one float64 FFT product, length * (m-1)^2.
# Measured worst rounding errors over 40 lengths n from 500 to 20001 at the
# transform length fft_length(2n - 1), every entry m - 1: 0.0024 at 2^42,
# 0.039 at 2^45.3 and 0.063 at 2^46 (0.0024, 0.031 and 0.047 at the next
# power of two); on random residues 0.22 at 2^50 and 0.5 at 2^52.  From
# 2^53 on the float64 spacing reaches 1, so the rounding margin can read 0
# while the rounded value is wrong (by 16 at 2^56).  Below 2^46 the error
# stays at a quarter of the guard's 0.25 or less.
FFT_EXACT_BOUND = 2 ** 46

# moduli from 2^31 on overflow the int64 product of two residues
MODULUS_LIMIT = 2 ** 31


def exact_integers(values: np.ndarray) -> np.ndarray:
    """Round FFT output whose exact values are integers, refusing it when
    any entry lies 0.25 or more from the nearest integer."""
    error = np.rint(values)
    rounded = error.astype(np.int64)
    error -= values             # in place: one float temporary beside the result
    margin = float(np.max(np.abs(error, out=error)))
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin:.3g} reached 0.25")
    return rounded


def fft_length(n: int) -> int:
    """The least 2^a, 3 2^a, 5 2^a or 15 2^a >= n, at most 25% above n where
    a power of two can be twice n: numpy's pocketfft runs such a length in
    radix-4 and -2 passes and at most one of 3 and of 5, which outran the
    least 2^a 3^b 5^c where that has fewer factors 2 (2048 before 2000,
    20480 before 20250, 6144 before 6075; notes/decisions.md)."""
    return min(k << (-(-n // k) - 1).bit_length() for k in (1, 3, 5, 15))


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
    n = a.shape[1]
    size = fft_length(2 * n - 1)
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


def eta_product_mod(factors, length: int, moduli) -> np.ndarray:
    """prod (1 - x^(k n))^e over the (k, e) in factors, mod (m, x^length)
    for every m in moduli: one int64 row per modulus, reduced from the
    ceil(length / k) exact integer coefficients of prod (1 - x^n)^e (cached
    per process by ``series``) and spread with stride k."""
    m = _modulus_column(moduli)
    u = None
    for k, e in factors:
        base = -(-length // k)
        exact = np.array(_eta_power_base(e, base)[:base], dtype=object)
        f = np.zeros((len(moduli), length), dtype=np.int64)
        f[:, ::k] = [exact % x for x in moduli]
        u = f if u is None else _mul_mod(u, f, m)
    return u


# ---------------------------------------------------------------------------
# the printed basis coefficients mod m, from the eta product's integer
# coefficients


def lattice_indices(group: GroupRecord, which: str, n):
    """j_n with a_n = [x^(j_n)] P(x)^(1/3), as int64, for an int64 array n
    of printed indices; -1 where a_n is zero by construction.  The one
    test of whether an index is on the form's lattice."""
    _, _, step, shift, den = lattice_map(group, which)
    j, r = np.divmod(step * n - shift, den)
    return np.where((j >= 0) & (r == 0), j, -1)


def coefficient_residues(group: GroupRecord, bound: int, moduli: tuple[int, ...]):
    """(a, b): a_n and b_n mod m for n = 1..bound and every m in moduli (each
    prime to 3), without the exact series: two read-only int64 matrices,
    one row per modulus, column n - 1 holding the n-th coefficient.

    The exponents of h1 and h2 add up to multiples of 3 at every scale, so
    P1 P2 = G^3 for the integer eta product G = prod (1 - x^(k n))^((e1_k +
    e2_k)/3), all in x = q^g for the scale gcd g the two forms share.  The
    eta factors are reduced mod every modulus and one Newton over all of
    them (``cube_roots_mod``) gives both forms: h1 = P1 w^2 and h2 = G w
    with w = P1^(-1/3).  A group without these properties is refused with
    ValueError."""
    (eq1, g, *_), (eq2, g2, *_) = lattice_map(group, "a"), lattice_map(group, "b")
    e1, e2 = dict(eq1.factors), dict(eq2.factors)
    total = {k: e1.get(k, 0) + e2.get(k, 0) for k in sorted(e1.keys() | e2.keys())}
    if g != g2 or any(e % 3 for e in total.values()):
        raise ValueError(f"{group.name}: h1 h2 is not the cube of an eta "
                         "product on the scale gcd of both forms")
    p1 = [(k // g, e) for k, e in eq1.factors]
    cofactor = [(k // g, e // 3) for k, e in total.items() if e]
    cols = np.stack([lattice_indices(group, w, np.arange(1, bound + 1)) for w in "ab"])
    length = 1 + int(cols.max(initial=0))
    roots = cube_roots_mod(eta_product_mod(p1, length, moduli),
                           eta_product_mod(cofactor, length, moduli), moduli) \
        if moduli else np.zeros((2, 0, length), dtype=np.int64)
    # a_n zero by construction reads column -1, a zero padded onto each root
    a, b = (np.pad(h, ((0, 0), (0, 1)))[:, js] for h, js in zip(roots, cols))
    a.flags.writeable = b.flags.writeable = False
    return a, b
