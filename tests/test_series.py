"""Exact series arithmetic: ring laws, eta expansions, roots, Eisenstein."""

import random
from fractions import Fraction

import pytest

import numpy as np

from noncong import series
from noncong.catalog import GROUPS
from noncong.series import (EtaQuotient, MODULUS_LIMIT, PrecisionError,
                            PuiseuxSeries, _convolve, _limbs, _miller_power,
                            _mul_mod, _scale_exponents,
                            cube_roots_mod, eisenstein_e6, eta_expansion,
                            eta_power_coeffs, eta_product_ints, eta_product_mod,
                            parse_series)


def _miller_frac_power(u: list[Fraction], alpha: Fraction, length: int) -> list[Fraction]:
    """(1 + u_1 q + ...)^alpha by the Miller recurrence over the rationals:
    the reference the integer recurrence is checked against."""
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


def q_series(terms, mu=1, trunc=None):
    return PuiseuxSeries.from_terms(terms, mu=mu, trunc=trunc)


def random_series(rng, mu, trunc):
    terms = [(n, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
             for n in range(rng.randint(0, 3), trunc)]
    return q_series(terms, mu=mu, trunc=trunc)


def test_difference_of_squares():
    q = q_series([(1, 1)], trunc=10)
    prod = (1 - q) * (1 + q)
    assert prod.terms() == [(0, 1), (2, -1)]


def test_additive_identity():
    q = q_series([(1, 3), (4, Fraction(-2, 7))], mu=3, trunc=12)
    assert q + PuiseuxSeries.zero(10 ** 9) == q


def test_ramification_minimized_on_product():
    a = q_series([(1, 1)], mu=3, trunc=9)
    b = q_series([(2, 1)], mu=3, trunc=9)
    prod = a * b
    assert prod.mu == 1
    assert prod.terms() == [(1, 1)]


def test_ring_laws_random_order_30():
    rng = random.Random(20260810)
    for _ in range(25):
        mu = rng.choice([1, 2, 3])
        s1 = random_series(rng, mu, 30)
        s2 = random_series(rng, mu, 30)
        s3 = random_series(rng, mu, 30)
        assert (s1 + s2) + s3 == s1 + (s2 + s3)
        assert s1 * s2 == s2 * s1
        lhs = s1 * (s2 + s3)
        rhs = s1 * s2 + s1 * s3
        assert lhs.agrees_with(rhs)


def schoolbook(a, b, length):
    out = [0] * length
    for i, x in enumerate(a[:length]):
        for j, y in enumerate(b[:length - i]):
            out[i + j] += x * y
    return out


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(9)
    for bits in (1, 7, 8, 63, 64, 65, 2000):
        for _ in range(40):
            a, b = ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randint(0, 15))]
                    for _ in range(2))
            if a and rng.random() < 0.3:         # leading zeros
                k = rng.randint(1, len(a))
                a[:k] = [0] * k
            for length in (0, 1, max(len(a), 1) // 2, len(a) + len(b) - 1, len(a) + len(b) + 5):
                assert _convolve(a, b, length) == schoolbook(a, b, length), (a, b, length)
    extreme = [2 ** 2000 - 1, -(2 ** 2000 - 1)] * 4
    assert _convolve(extreme, extreme, 20) == schoolbook(extreme, extreme, 20)
    assert _convolve([0, 0, 0], [5, -3], 6) == [0] * 6
    assert _convolve([], [1], 3) == [0, 0, 0]


def test_fraction_series_product_matches_schoolbook():
    rng = random.Random(4)
    a, b = (random_series(rng, 1, 25) for _ in range(2))
    prod = a * b
    assert prod.lo == a.lo + b.lo and prod.trunc == min(a.trunc + b.lo, b.trunc + a.lo)
    want = schoolbook(list(a.coeffs), list(b.coeffs), prod.trunc - prod.lo)
    assert [prod.coefficient(prod.lo + i) for i in range(len(want))] == want
    assert any(c.denominator > 1 for c in prod.coeffs)


def test_invert_geometric_series():
    q = q_series([(1, 1)], trunc=12)
    inv = (1 - q).invert()
    assert all(c == 1 for _, c in inv.terms())
    assert len(inv.terms()) == 12  # known modulo q^12


def test_invert_is_involution_on_random_units():
    rng = random.Random(7)
    for _ in range(10):
        s = random_series(rng, 1, 25)
        if s.is_zero or s.valuation != 0:
            s = s + 1 if not s.is_zero else PuiseuxSeries.one(25)
        twice = s.invert().invert()
        assert twice.agrees_with(s)


def test_invert_zero_leading_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        PuiseuxSeries.zero(5).invert()


def test_root_power_round_trip():
    rng = random.Random(99)
    for n in (2, 3):
        for _ in range(6):
            s = random_series(rng, 1, 18) + 1
            if s.valuation != 0 or s.coefficient(0) != 1:
                s = s - s.coefficient(0) + 1
            assert (s ** n).nth_root(n).agrees_with(s)


def test_cube_root_of_exact_cube():
    q = q_series([(1, 1)], trunc=10)
    assert ((1 + q) ** 3).nth_root(3).agrees_with(1 + q)


def test_root_rejects_non_power_leading_coefficient():
    s = q_series([(0, 2), (1, 1)], trunc=8)
    with pytest.raises(ValueError, match="not a rational"):
        s.nth_root(3)


def test_pentagonal_expansion():
    e = eta_expansion(1, 16)
    assert e.terms() == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)]
    e2 = eta_expansion(2, 12)
    assert e2.terms() == [(0, 1), (2, -1), (4, -1), (10, 1)]


def naive_eta_product(m, order):
    coeffs = [Fraction(0)] * order
    coeffs[0] = Fraction(1)
    for n in range(1, order // m + 1):
        new = list(coeffs)
        for i in range(order - m * n):
            if coeffs[i]:
                new[i + m * n] -= coeffs[i]
        coeffs = new
    return coeffs


@pytest.mark.parametrize("m", range(1, 9))
def test_pentagonal_vs_naive_product(m):
    order = 60
    naive = naive_eta_product(m, order)
    fast = eta_expansion(m, order)
    for n in range(order):
        assert fast.coefficient(n) == naive[n], (m, n)


def test_eta_quotient_examples():
    t = EtaQuotient.of({1: 8, 4: 4, 2: -12}).expansion(6)
    assert [t.coefficient(i) for i in range(3)] == [1, -8, 32]
    b = EtaQuotient.of({2: 1, 3: 6, 1: -2, 6: -3}).expansion(6)
    assert [b.coefficient(i) for i in range(3)] == [1, 2, 4]
    a = EtaQuotient.of({1: 1, 6: 6, 2: -2, 3: -3}).expansion(6)
    assert [a.coefficient(i) for i in range(1, 5)] == [1, -1, 1, 1]


def test_eta_quotient_fractional_prefactor():
    eq = EtaQuotient.of({2: 20, 4: -6, 8: 4})
    s = eq.expansion(4)
    assert s.valuation == 2  # q^2 prefactor
    eta = EtaQuotient.of({1: 1}).expansion(4)
    assert (eta.mu, eta.valuation) == (24, Fraction(1, 24))


def test_cube_root_eta_quotient_known_values():
    h1 = EtaQuotient.of({1: 4, 2: -6, 4: 20}).expansion(8).nth_root(3)
    want = [Fraction(1), Fraction(-4, 3), Fraction(8, 9), Fraction(-176, 81),
            Fraction(-850, 243)]
    assert [h1.coefficient(n) for n in range(1, 6)] == want
    h = EtaQuotient.of({2: 20, 8: 4, 4: -6}).expansion(8).nth_root(3)
    assert h.valuation == Fraction(1, 3) * 2
    assert h.coefficient_at(Fraction(2, 3)) == 1
    assert h.coefficient_at(Fraction(8, 3)) == Fraction(-20, 3)
    assert h.coefficient_at(Fraction(14, 3)) == Fraction(128, 9)


def random_eta_unit(rng, length):
    """Integer coefficients of prod (1 - q^(m n))^e over one to three random
    (m, e), m <= 6, |e| <= 3."""
    scales = rng.sample(range(1, 7), rng.randint(1, 3))
    return eta_product_ints([(m, rng.choice([-3, -2, -1, 1, 2, 3])) for m in scales],
                            length)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 6, 9, 12])
def test_integer_recurrence_matches_fraction_recurrence(b):
    """For alpha = e/b on integral units, the integer recurrence, **, invert
    and nth_root all agree with the Fraction recurrence."""
    rng = random.Random(1000 + b)
    for e in (-6, -1, 2, 9):
        alpha = Fraction(e, b)
        length = rng.randint(20, 150)
        unit = random_eta_unit(rng, length)
        want = _miller_frac_power([Fraction(x) for x in unit], alpha, length)
        terms = [(k, x) for k, x in enumerate(unit) if k and x]
        den = alpha.denominator
        scaled = _miller_power(terms, alpha.numerator, den, length)
        assert [Fraction(v, den ** c) for v, c in
                zip(scaled, _scale_exponents(den, length))] == want, (e, b)
        s = PuiseuxSeries.from_terms(enumerate(unit), trunc=length)
        power = s ** e
        if e < 0:
            assert s.invert() ** -e == power
        got = power.nth_root(b) if b > 1 else power
        assert got.trunc == length * got.mu
        assert [got.coefficient_at(i) for i in range(length)] == want, (e, b)


@pytest.mark.parametrize("alpha", [Fraction(-6), Fraction(-1), Fraction(1, 3),
                                   Fraction(2, 9)])
def test_rational_unit_powers_match_fraction_recurrence(alpha):
    """On units with denominators (made integral as U(q/d), U_k = d^k u_k),
    the one integer recurrence behind invert, nth_root and negative powers
    gives the Fraction recurrence's coefficients, lead and offset applied."""
    rng = random.Random(2000 + alpha.numerator * 10 + alpha.denominator)
    for _ in range(4):
        length = rng.randint(10, 60)
        unit = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 9, 12]))
                                for _ in range(1, length)]
        want = _miller_frac_power(unit, alpha, length)
        lead = (rng.choice([1, -1]) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
                ) ** alpha.denominator
        lo = rng.randint(-2, 2) * alpha.denominator
        s = q_series([(lo + k, lead * x) for k, x in enumerate(unit)], trunc=lo + length)
        if alpha.denominator == 1:
            got = s ** alpha.numerator
            if alpha == -1:
                assert got == s.invert()
        else:
            got = s.nth_root(alpha.denominator) ** alpha.numerator
        r0 = series.rational_nth_root(lead, alpha.denominator) ** alpha.numerator
        assert got.trunc == (lo * alpha + length) * got.mu, alpha
        assert [got.coefficient_at(lo * alpha + k) for k in range(length)] == \
            [r0 * x for x in want], alpha


def test_recurrence_refuses_a_corrupted_prefix(monkeypatch):
    """Resumed from a stored eta(q) prefix whose last value is 2 instead of
    1, the step n = 6 reads 6 B_6 = 4 and is refused, at every scale that
    reads the stored list past it."""
    for m in (1, 2, 3):
        monkeypatch.setattr(series, "_ETA_POWERS", {1: [1, -1, -1, 0, 0, 2]})
        with pytest.raises(ArithmeticError, match="lost exactness"):
            eta_power_coeffs(m, 1, 20 * m)


def count_recurrences(monkeypatch) -> list[int]:
    """Empty the eta-power store and record, for each recurrence run, how
    many coefficients it computes."""
    monkeypatch.setattr(series, "_ETA_POWERS", {})
    computed = []

    def counting(terms, a, b, length, head=(1,)):
        computed.append(length - len(head))
        return _miller_power(terms, a, b, length, head)

    monkeypatch.setattr(series, "_miller_power", counting)
    return computed


def test_root_of_strided_unit_runs_in_steps_of_the_stride(monkeypatch):
    """eta^-1 = q^(-1/24) (1 + sum p(n) q^n) is a unit in q^24 on its 1/24
    grid: its 24th root runs the recurrence over at most N + 1
    coefficients, not 24 N, and equals the Fraction recurrence run on the
    dense grid."""
    computed = count_recurrences(monkeypatch)
    N = 30
    eta_inv = EtaQuotient.of({1: -1}).expansion(N)
    root = eta_inv.nth_root(24)
    assert computed and max(computed) <= N + 1
    length = eta_inv.trunc - eta_inv.lo
    dense = _miller_frac_power(list(eta_inv.coeffs), Fraction(1, 24), length)
    want = PuiseuxSeries(24 * eta_inv.mu, eta_inv.lo, series._stride(dense, 24),
                         eta_inv.lo + 24 * length)
    assert root.trunc == want.trunc and root.agrees_with(want)


def dense_eta(m: int, length: int) -> list[Fraction]:
    dense = [Fraction(0)] * length
    for k, c in series.pentagonal_terms(m, length):
        dense[k] = Fraction(c)
    return dense


def test_eta_powers_grow_in_place(monkeypatch):
    """One list per exponent, extended by resuming the recurrence: requests
    of 40, 200 and 90 coefficients of eta(q^2)^-6 compute each of the 100
    coefficients of eta(q)^-6 they need once and read the one stored list."""
    want = [int(x) for x in _miller_frac_power(dense_eta(2, 200), Fraction(-6), 200)]
    computed = count_recurrences(monkeypatch)
    assert eta_power_coeffs(2, -6, 40) == want[:40]
    assert eta_power_coeffs(2, -6, 200) == want
    assert eta_power_coeffs(2, -6, 90) == want[:90]
    assert sum(computed) == 99
    assert list(series._ETA_POWERS) == [-6] and len(series._ETA_POWERS[-6]) == 100


def test_eta_power_scales_share_one_recurrence(monkeypatch):
    """Requests for one exponent at scales 1, 2 and 4 read one list: one
    recurrence run when scale 1 comes first, and each coefficient computed
    once in the opposite order."""
    computed = count_recurrences(monkeypatch)
    lists = [eta_power_coeffs(m, 9, 120) for m in (1, 2, 4)]
    assert computed == [119]
    computed = count_recurrences(monkeypatch)
    assert [eta_power_coeffs(m, 9, 120) for m in (4, 2, 1)] == lists[::-1]
    assert sum(computed) == 119 and list(series._ETA_POWERS) == [9]


CATALOG_EXPONENTS = sorted({e for g in GROUPS.values() for eq in (g.h1, g.h2)
                            for _, e in eq.factors})


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_eta_powers_match_fraction_recurrence_at_every_scale(m):
    """The strided list of prod (1 - q^n)^e is prod (1 - q^(m n))^e, as the
    Fraction recurrence gives it on the dense expansion, for every exponent
    of a catalog basis form."""
    length = 150
    for e in CATALOG_EXPONENTS:
        want = _miller_frac_power(dense_eta(m, length), Fraction(e), length)
        assert eta_power_coeffs(m, e, length) == want, (m, e)


def test_divisor_sigma():
    """sigma_table, the sieve behind E6, against a brute-force divisor sum."""
    brute = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 200)]
    assert series.sigma_table(200) == [0] + brute


def test_eisenstein_values():
    e = eisenstein_e6(5)
    assert e.coefficient(0) == 1
    assert e.coefficient(1) == 12   # sigma(3) - 3 sigma(1) = 1
    assert e.coefficient(2) == 36   # sigma(6) - 3 sigma(2) = 3
    assert e.coefficient(3) == 12


def test_coefficient_beyond_truncation_is_error():
    q = q_series([(1, 1)], trunc=5)
    with pytest.raises(PrecisionError, match="insufficient precision"):
        q.coefficient(5)
    assert q.coefficient(4) == 0


def test_zero_series_coefficients():
    z = PuiseuxSeries.zero(40)
    assert z.coefficient(7) == 0
    assert z.mu == 1 and z.is_zero


def test_eb_identity_and_level6_relations_to_order_30():
    N = 36
    t = EtaQuotient.of({1: 8, 4: 4, 2: -12}).expansion(N)
    ea = EtaQuotient.of({4: 4, 2: 6, 1: -4}).expansion(N)
    eb = EtaQuotient.of({2: 8, 8: 4, 4: -6}).expansion(N)
    assert ((t.scale(2) / (t + 1)) * ea).agrees_with(eb, through=30)

    a = EtaQuotient.of({1: 1, 6: 6, 2: -2, 3: -3}).expansion(N)
    b = EtaQuotient.of({2: 1, 3: 6, 1: -2, 6: -3}).expansion(N)
    c = EtaQuotient.of({3: 1, 2: 6, 6: -2, 1: -3}).expansion(N)
    d = EtaQuotient.of({6: 1, 1: 6, 3: -2, 2: -3}).expansion(N)
    r0 = b / d
    assert [r0.coefficient(i) for i in range(4)] == [1, 8, 40, 152]
    assert (b / c).agrees_with(r0.scale(8) / (r0.scale(9) - 1), through=30)
    assert (a / c).agrees_with((r0 - 1) / (r0.scale(9) - 1), through=30)
    assert (a / d).agrees_with((r0 - 1) / 8, through=30)


def test_serialize_round_trip():
    h = EtaQuotient.of({2: 16, 4: 6, 8: -4}).expansion(10).nth_root(3)
    text = h.serialize()
    assert text.splitlines()[0] == "1/3\t1/1"
    back = parse_series(text)
    assert back.agrees_with(h)


def test_substitute_qpower():
    q = q_series([(1, 1), (3, 2)], trunc=5)
    s = q.substitute_qpower(12)
    assert s.coefficient_at(12) == 1 and s.coefficient_at(36) == 2


def test_eta_quotient_weights():
    from noncong.catalog import ETA_A6, ETA_B6, ETA_EA, ETA_EB
    assert ETA_EA.weight == 3 and ETA_EB.weight == 3
    assert ETA_A6.weight == 1 and ETA_B6.weight == 1


def test_agrees_with_covers_negative_exponents():
    a = PuiseuxSeries.from_terms([(-1, 1), (0, 2)], trunc=5)
    b = PuiseuxSeries.from_terms([(-1, 3), (0, 2)], trunc=5)
    assert not a.agrees_with(b)
    assert a.agrees_with(a)


def test_agrees_with_through_a_fractional_bound_reaches_the_last_exponent():
    """Exponents below through = 9/2 include 4: a difference at q^4 is seen."""
    a = q_series([(0, 1), (4, 1)], trunc=10)
    b = q_series([(0, 1), (4, 2)], trunc=10)
    assert not a.agrees_with(b, through=Fraction(9, 2))
    assert a.agrees_with(b, through=4)


def test_adding_a_constant_keeps_a_negative_truncation():
    """A constant is exact, so adding one keeps every coefficient known
    below a truncation at or below q^0."""
    s = q_series([(-3, 1), (-2, 5)], trunc=-1)
    for t in (s + 0, s + 1, s - 1, 1 + s, Fraction(1, 2) - s):
        assert t.trunc == -1
    assert (s + 1).coefficient(-2) == 5 and (s - 1).coefficient(-3) == 1
    assert (Fraction(1, 2) - s).coefficient(-2) == -5
    n = q_series([(-4, 2), (-2, 1)], mu=3, trunc=-1)
    assert (n + 7).trunc == -1 and (n + 7).coefficient(-4) == 2


# --- power series mod m ------------------------------------------------------------

def _column(moduli):
    return np.array(moduli, dtype=np.int64).reshape(-1, 1)


def _python_product(a, b, m):
    """a*b mod (m, x^len(a)) by Kronecker substitution on Python integers."""
    n = len(a)
    width = ((n * (m - 1) ** 2).bit_length() + 7) // 8

    def pack(xs):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in xs), "little")

    c = (pack(a) * pack(b[:n])).to_bytes(2 * n * width, "little")
    return [int.from_bytes(c[k * width:(k + 1) * width], "little") % m for k in range(n)]


def test_cube_root_mod_cubes_back():
    rng = random.Random(5)
    moduli = (25, 49, 9409, 65521, 1000003, 2003 ** 2, MODULUS_LIMIT - 1)
    u, g = (np.array([[1] + [rng.randrange(m) for _ in range(199)] for m in moduli],
                     dtype=np.int64) for _ in "ug")
    r, s = cube_roots_mod(u, g, moduli)
    m = _column(moduli)
    assert (_mul_mod(_mul_mod(r, r, m), r, m) == u).all()
    # s is the cube root of v = g^3 / u: u s^3 = g^3
    assert (_mul_mod(u, _mul_mod(_mul_mod(s, s, m), s, m), m)
            == _mul_mod(_mul_mod(g, g, m), g, m)).all()


def test_mul_mod_matches_python_integers():
    rng = random.Random(6)
    moduli = (97 ** 2, 2003 ** 2, 97 ** 2, 65521)
    assert _limbs(1000, 97 ** 2)[0] == 1 and _limbs(10 ** 4, 65521)[0] == 1
    assert _limbs(1000, 2003 ** 2)[0] == 2
    a = [[rng.randrange(m - 99, m) for _ in range(1000)] for m in moduli]
    b = [[rng.randrange(m - 99, m) for _ in range(1000)] for m in moduli]
    got = _mul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                   _column(moduli))
    assert got.tolist() == [_python_product(x, y, m) for x, y, m in zip(a, b, moduli)]


def test_rounding_guard_refuses_perturbed_product(monkeypatch):
    from numpy import fft
    ones = np.ones((2, 50), dtype=np.int64)
    m = _column((25, 49))
    assert _mul_mod(ones, ones, m)[:, 30].tolist() == [31 % 25, 31 % 49]
    irfft = fft.irfft

    def perturbed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[1, 7] += 0.3
        return out

    monkeypatch.setattr(fft, "irfft", perturbed)
    with pytest.raises(AssertionError, match="rounding margin"):
        _mul_mod(ones, ones, m)


def test_modulus_limit_is_refused():
    ones = np.ones((1, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="moduli must lie in"):
        cube_roots_mod(ones, ones, (MODULUS_LIMIT,))
    with pytest.raises(ValueError, match="moduli must lie in"):
        eta_product_mod([(1, 1)], 3, (25, MODULUS_LIMIT + 1))


def test_eta_parse_refuses_malformed_pairs():
    with pytest.raises(ValueError, match="not a pair scale:exponent"):
        EtaQuotient.parse("1:x")
