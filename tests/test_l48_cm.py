"""The level-48 newform is a CM form for Q(sqrt(-3)), so A_p has a closed
form in p = a^2 + 3 b^2 that uses no eta product.  It ties three layers:
the eta-product coefficients, the Hecke character and the F_p traces of the
two E8 families attached to L48."""

from math import isqrt

from noncong.catalog import GROUPS, kronecker_symbol, newform_an, primes_upto
from noncong.traces import frobenius_trace, surface_families


def cornacchia(p: int) -> tuple[int, int]:
    """(a, b) with p = a^2 + 3 b^2, for a prime p = 1 (mod 3).

    x = 2w + 1 for a primitive cube root of unity w mod p squares to -3;
    the first remainder below sqrt(p) of Euclid's algorithm on (p, x) is a
    (Cornacchia's algorithm)."""
    w = next(w for w in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if w != 1)
    r0, r1 = p, (2 * w + 1) % p
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    b2, rem = divmod(p - r1 * r1, 3)
    b = isqrt(b2)
    assert rem == 0 and b * b == b2, p
    return r1, b


def hecke_character_ap(p: int) -> int:
    """A_p of L48 from the closed form: 0 at p = 2 (mod 3), else
    2 (-4/p) (a^2 - 3 b^2)."""
    if p % 3 == 2:
        return 0
    a, b = cornacchia(p)
    return 2 * kronecker_symbol(-4, p) * (a * a - 3 * b * b)


def test_cornacchia_decomposes():
    for p in (7, 13, 19, 31, 37, 3001):
        a, b = cornacchia(p)
        assert a * a + 3 * b * b == p


def test_l48_coefficients_follow_the_hecke_character():
    primes = [p for p in primes_upto(4001) if p >= 5]
    assert len(primes) == 549
    for p in primes:
        assert newform_an("L48", p) == hecke_character_ap(p), p


def test_l48_family_traces_follow_the_hecke_character():
    """Tr_p(E8(r^3)) = 2 (-4/p) A_p and Tr_p(E8((r^3-1)/(r^3+1))) = 2 A_p:
    the first family is the (-4/.) twist of the second."""
    families = {fam.label: fam for name in ("gamma_24.6.1^6", "gamma_8^3.2^3.3^2")
                for fam in surface_families(GROUPS[name])}
    twisted, untwisted = families["E8(r^3)"], families["E8((r^3-1)/(r^3+1))"]
    primes = [p for p in primes_upto(1000) if p >= 5]
    assert len(primes) == 166
    for p in primes:
        ap = hecke_character_ap(p)
        assert frobenius_trace(twisted, p) == 2 * kronecker_symbol(-4, p) * ap, p
        assert frobenius_trace(untwisted, p) == 2 * ap, p
