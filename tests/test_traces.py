"""Finite fields, point counting, fiber classification, Frobenius traces."""

import csv
import math
import random
from pathlib import Path

import numpy as np
import pytest

from noncong.catalog import GROUPS, MAIN_GROUPS, get_group
from noncong.surfaces import beauville_short, rf
from noncong.traces import (BadPrimeError, FIBER_VALUE, PrimeField,
                            QuadExtField, TABLE8_PRIMES, _exact_integers,
                            _poly_eval, classify_singular_fiber,
                            count_points_short, fiber_trace_table, field_for,
                            frobenius_trace, local_trace, quadratic_character,
                            SurfaceFamily, surface_families, trace_pair,
                            trace_fingerprint_equal, trace_rows, rows_to_csv)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def load_traces_golden():
    rows = {}
    with open(GOLDEN / "traces.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows[(rec["group"], rec["parameterization"], int(rec["p"]))] = \
                (int(rec["tr_p"]), int(rec["tr_p2"]))
    return rows


# --- test-local arithmetic on pairs (a, b) = a + b*sqrt(nu) of F_{p^2} ----------

def pair_mul(p, nu, u, v):
    (a, b), (c, d) = u, v
    return ((a * c + nu * b * d) % p, (a * d + b * c) % p)


def pair_index(p, u):
    return u[0] % p * p + u[1] % p


@pytest.mark.parametrize("p,nonresidue", [(5, None), (7, None), (13, 5)])
def test_extension_arithmetic_matches_pair_arithmetic(p, nonresidue):
    f = QuadExtField(p, nonresidue)
    assert pow(f.nu, (p - 1) // 2, p) == p - 1
    assert nonresidue is None or f.nu == nonresidue
    pairs = [divmod(i, p) for i in range(f.q)]
    want_mul = [pair_index(p, pair_mul(p, f.nu, u, v)) for u in pairs for v in pairs]
    want_add = [pair_index(p, (u[0] + v[0], u[1] + v[1])) for u in pairs for v in pairs]
    x = np.repeat(np.arange(f.q, dtype=np.int64), f.q)
    y = np.tile(np.arange(f.q, dtype=np.int64), f.q)
    assert f.mul_vec(x, y).tolist() == want_mul
    assert f.add_vec(x, y).tolist() == want_add
    assert [f.mul_vec(i, j) for i in range(f.q) for j in range(f.q)] == want_mul
    assert [f.add_vec(i, j) for i in range(f.q) for j in range(f.q)] == want_add
    consts = range(-2 * p, 2 * p)
    assert [f.constant(c) for c in consts] == [pair_index(p, (c, 0)) for c in consts]
    inv = f.inv_table()
    assert inv[0] == 0
    assert all(pair_mul(p, f.nu, pairs[i], pairs[inv[i]]) == (1, 0) for i in range(1, f.q))
    base_inv = PrimeField(p).inv_table()
    assert all(i * base_inv[i] % p == 1 for i in range(1, p))


# --- characters ---------------------------------------------------------------

def test_quadratic_character_examples():
    f5 = PrimeField(5)
    assert quadratic_character(f5, 4) == 1
    assert quadratic_character(f5, 2) == -1
    assert quadratic_character(PrimeField(7), 0) == 0


def test_character_matches_euler_criterion():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = PrimeField(p)
        for u in range(p):
            euler = 0 if u == 0 else (1 if pow(u, (p - 1) // 2, p) == 1 else -1)
            assert quadratic_character(f, u) == euler


def test_extension_character_via_euler():
    f = QuadExtField(7)
    for u in f.elements():
        acc = (1, 0)
        for _ in range((f.q - 1) // 2):
            acc = pair_mul(f.p, f.nu, acc, divmod(u, f.p))
        want = 0 if u == 0 else (1 if acc == (1, 0) else -1)
        assert quadratic_character(f, u) == want


# --- point counting -------------------------------------------------------------

def brute_force_count_prime(p, A, B):
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y - x ** 3 - A * x - B) % p == 0:
                n += 1
    return n


def test_count_examples():
    f5 = PrimeField(5)
    assert count_points_short(f5, 0, 1) == 6
    assert count_points_short(f5, 4, 0) == 8  # x^3 - x


def test_count_vs_brute_force_100_random_curves_per_prime():
    rng = random.Random(31337)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = PrimeField(p)
        done = 0
        while done < 100:
            A, B = rng.randrange(p), rng.randrange(p)
            if (4 * A ** 3 + 27 * B * B) % p == 0:
                continue
            assert count_points_short(f, A, B) == brute_force_count_prime(p, A, B)
            done += 1


def test_count_extension_field_vs_brute_force():
    f = QuadExtField(5)
    pairs = [divmod(i, 5) for i in f.elements()]
    rng = random.Random(1)
    done = 0
    while done < 10:
        A = (rng.randrange(5), rng.randrange(5))
        B = (rng.randrange(5), rng.randrange(5))
        try:
            fast = count_points_short(f, pair_index(5, A), pair_index(5, B))
        except ValueError:
            continue
        brute = 1
        for x in pairs:
            rhs = pair_mul(5, f.nu, pair_mul(5, f.nu, x, x), x)
            ax = pair_mul(5, f.nu, A, x)
            rhs = ((rhs[0] + ax[0] + B[0]) % 5, (rhs[1] + ax[1] + B[1]) % 5)
            for y in pairs:
                if pair_mul(5, f.nu, y, y) == rhs:
                    brute += 1
        assert fast == brute
        done += 1


def test_hasse_bound_on_200_random_triples():
    rng = random.Random(2024)
    done = 0
    while done < 200:
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        A, B = rng.randrange(p), rng.randrange(p)
        if (4 * A ** 3 + 27 * B * B) % p == 0:
            continue
        n = count_points_short(PrimeField(p), A, B)
        assert abs(p + 1 - n) <= 2 * math.isqrt(p) + 1
        done += 1


def test_count_refuses_singular():
    with pytest.raises(ValueError, match="singular"):
        count_points_short(PrimeField(5), 0, 0)


# --- singular classification ------------------------------------------------------

def tangent_slope_is_square(p, A, B):
    """Independent oracle: factor the cubic at its double root and test
    whether the tangent slopes at the node are rational."""
    roots = [x for x in range(p) if (x ** 3 + A * x + B) % p == 0]
    double = [x for x in roots if (3 * x * x + A) % p == 0]
    if not double:
        return None  # cusp (triple root): additive
    x0 = double[0]
    # y^2 = (x - x0)^2 (x - c) with c = -2 x0; slopes^2 = x0 - c = 3 x0
    slope_sq = 3 * x0 % p
    if slope_sq == 0:
        return None
    return pow(slope_sq, (p - 1) // 2, p) == 1


def test_classify_examples():
    assert classify_singular_fiber(PrimeField(5), 0, 0) == "additive"
    f7 = PrimeField(7)
    assert classify_singular_fiber(f7, -3 % 7, 2) == "nonsplitMult"
    f11 = PrimeField(11)
    assert classify_singular_fiber(f11, -3 % 11, 2) == "splitMult"
    with pytest.raises(ValueError, match="nonsingular"):
        classify_singular_fiber(f7, 0, 1)


def test_classification_matches_tangent_slope_oracle():
    rng = random.Random(99)
    seen = 0
    while seen < 60:
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        x0 = rng.randrange(1, p)
        # nodal cubic (x - x0)^2 (x + 2 x0): A = -3 x0^2, B = 2 x0^3
        A = (-3 * x0 * x0) % p
        B = 2 * pow(x0, 3, p) % p
        want = tangent_slope_is_square(p, A, B)
        kind = classify_singular_fiber(PrimeField(p), A, B)
        if want is None:
            assert kind == "additive"
        else:
            assert kind == ("splitMult" if want else "nonsplitMult")
        seen += 1


# --- local traces and their sum ----------------------------------------------------

@pytest.mark.parametrize("name,p", [("gamma_24.6.1^6", 7), ("gamma_18.3^4.2^3", 5),
                                    ("gamma_9.6^4.1^3", 7)])
def test_local_traces_sum_to_frobenius_trace(name, p):
    fam = surface_families(GROUPS[name])[0]
    for squared in (False, True):
        field = QuadExtField(p) if squared else PrimeField(p)
        total = sum(local_trace(fam, field, pt).value for pt in field.elements())
        total += local_trace(fam, field, "inf").value
        assert -total == frobenius_trace(fam, p, squared)


def test_local_trace_types():
    fam = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    f5 = PrimeField(5)
    kinds = {local_trace(fam, f5, pt).fiber_type for pt in f5.elements()}
    assert "smooth" in kinds
    lt = local_trace(fam, f5, "inf")
    assert lt.fiber_type in ("splitMult", "nonsplitMult", "additive", "smooth")
    smooth = [local_trace(fam, f5, pt) for pt in f5.elements()
              if local_trace(fam, f5, pt).fiber_type == "smooth"]
    for t in smooth:
        assert abs(t.value) <= 2 * math.isqrt(5) + 1


# --- the trace table ------------------------------------------------------------------

def test_trace_table_reproduces_golden_exactly():
    golden = load_traces_golden()
    rows = trace_rows([GROUPS[n] for n in MAIN_GROUPS])
    assert len(rows) == len(golden) == 96
    for name, label, p, tr, tr2 in rows:
        assert golden[(name, label, p)] == (tr, tr2), (name, label, p)


def test_specific_trace_values():
    fam = surface_families(get_group("24.6.1^6"))[0]
    assert frobenius_trace(fam, 7) == 4
    assert trace_pair(fam, 13) == (-44, 292)
    fam2 = surface_families(get_group("18.3^4.2^3"))[0]
    assert trace_pair(fam2, 19) == (34, -866)


def test_trace_zero_at_two_mod_three_primes():
    for name in MAIN_GROUPS:
        for fam in surface_families(GROUPS[name]):
            for p in TABLE8_PRIMES:
                if p % 3 == 2:
                    assert frobenius_trace(fam, p) == 0, (fam.label, p)


def test_fingerprints_of_isogenous_pairs():
    pairs = [("gamma_8^3.6.3.1^3", 2, "gamma_24.3.2^3.1^3", 0),
             ("gamma_18.6.3^3.1^3", 1, "gamma_9.6^3.3.2^3", 0),
             ("gamma_9.6^4.1^3", 1, "gamma_18.3^4.2^3", 0)]
    for na, ia, nb, ib in pairs:
        fa = surface_families(GROUPS[na])[ia]
        fb = surface_families(GROUPS[nb])[ib]
        rep = trace_fingerprint_equal(fa, fb, TABLE8_PRIMES)
        assert all(v["tr_p_equal"] and v["tr_p2_equal"] for v in rep.values())


def test_fingerprint_of_row_pair_1a_1b():
    fa = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    fb = surface_families(GROUPS["gamma_8^3.2^3.3^2"])[0]
    rep = trace_fingerprint_equal(fa, fb, TABLE8_PRIMES)
    assert all(v["tr_p2_equal"] for v in rep.values())
    differs = {p for p, v in rep.items() if not v["tr_p_equal"]}
    assert differs == {7, 19}


def test_twist_rows_sign_pattern():
    fams = surface_families(GROUPS["gamma_8^3.6.3.1^3"])
    fa = next(f for f in fams if f.label == "E8(r^3-1)")
    fb = next(f for f in fams if f.label == "E8(2r^3-1)")
    for p in TABLE8_PRIMES:
        ta, ta2 = trace_pair(fa, p)
        tb, tb2 = trace_pair(fb, p)
        assert ta2 == tb2
        if p in (7, 19):
            assert ta == -tb and ta != 0
        else:
            assert ta == tb


def test_family_vs_itself_equal():
    fam = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    rep = trace_fingerprint_equal(fam, fam, (5, 7))
    assert all(v["tr_p_equal"] and v["tr_p2_equal"] for v in rep.values())


def test_nonresidue_choice_does_not_change_trace():
    fam = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    p = 13
    base = QuadExtField(p)
    others = [n for n in range(2, p)
              if quadratic_character(PrimeField(p), n) == -1 and n != base.nu]
    alt = others[0]
    assert frobenius_trace(fam, p, True) == frobenius_trace(fam, p, True, nonresidue=alt)


def test_bad_primes_refused():
    fam = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    for p in (2, 3):
        with pytest.raises(BadPrimeError):
            frobenius_trace(fam, p)
    assert fam.bad_primes() == {2, 3}
    scaled = SurfaceFamily("E8(5r^3/7)", "E8", rf([0, 0, 0, 5], [7]))
    assert scaled.bad_primes() == {2, 3, 5, 7}      # content 5, resultant 7^3
    with pytest.raises(BadPrimeError):
        frobenius_trace(scaled, 5)


def test_csv_round_trip_header():
    rows = [("g", "E8(r^3)", 5, 0, 100)]
    assert rows_to_csv(rows).splitlines()[0] == "group,parameterization,p,tr_p,tr_p2"


def test_fiber_table_infinity_values():
    # level-8 fiber over the parameter point at infinity is split for every p
    for p in (5, 7, 11, 13):
        _, tau_inf = fiber_trace_table("E8", p, False)
        assert tau_inf == 1
        _, tau_inf6 = fiber_trace_table("E6", p, False)
        assert tau_inf6 == quadratic_character(PrimeField(p), (-3) % p)


# --- the FFT fiber-trace kernel against the scalar oracle ----------------------------

def scalar_fiber_traces(level, field, indices):
    """Local traces at the parameters with the given element indices, from
    the scalar point count or the singular-fiber classification of
    y^2 = x^3 + A(s) x + B(s)."""
    sw = beauville_short(level)
    Acoef = [int(c) for c in sw.A.num]
    Bcoef = [int(c) for c in sw.B.num]
    return [scalar_fiber_trace(field, Acoef, Bcoef, s) for s in indices]


def scalar_fiber_trace(field, Acoef, Bcoef, s):
    A = _poly_eval(field, Acoef, s)
    B = _poly_eval(field, Bcoef, s)
    try:
        return field.q + 1 - count_points_short(field, A, B)
    except ValueError:
        return FIBER_VALUE[classify_singular_fiber(field, A, B)]


@pytest.mark.parametrize("level", ["E8", "E6"])
@pytest.mark.parametrize("p,squared,nonresidue", [
    (5, False, None), (7, False, None), (11, False, None), (13, False, None),
    (5, True, None), (7, True, None), (11, True, None), (13, True, None),
    (13, True, 5),
])
def test_fiber_table_matches_scalar_oracle(level, p, squared, nonresidue):
    field = field_for(p, squared, nonresidue)
    tau, _ = fiber_trace_table(level, p, squared, nonresidue)
    assert tau.dtype == np.int32 and len(tau) == field.q
    assert tau.tolist() == scalar_fiber_traces(level, field, range(field.q))


@pytest.mark.parametrize("level", ["E8", "E6"])
@pytest.mark.parametrize("p,squared", [(151, True), (211, True), (997, False)])
def test_fiber_table_sampled_at_large_q(level, p, squared):
    field = field_for(p, squared)
    tau, _ = fiber_trace_table(level, p, squared)
    sample = random.Random(p).sample(range(field.q), 200)
    assert tau[sample].tolist() == scalar_fiber_traces(level, field, sample)


def test_fft_rounding_guard_refuses_perturbed_correlation():
    rng = np.random.default_rng(5)
    exact = rng.integers(-50, 50, size=101)
    noisy = exact + rng.uniform(-0.2, 0.2, size=101)
    assert _exact_integers(noisy).tolist() == exact.tolist()
    noisy[17] += 0.3
    with pytest.raises(AssertionError, match="rounding margin"):
        _exact_integers(noisy)


def test_hasse_guard_refuses_corrupted_table(monkeypatch):
    import noncong.traces as traces
    exact = traces._exact_integers
    monkeypatch.setattr(traces, "_exact_integers", lambda values: exact(values) + 7)
    fiber_trace_table.cache_clear()
    with pytest.raises(AssertionError, match="Hasse bound"):
        fiber_trace_table("E8", 11, False)


def test_fiber_tables_built_once_per_key():
    groups = [GROUPS[n] for n in MAIN_GROUPS]
    primes = (5, 7, 11, 13, 17, 19, 23)
    fiber_trace_table.cache_clear()
    trace_rows(groups, primes)
    assert fiber_trace_table.cache_info().misses == 2 * 2 * len(primes)
    fiber_trace_table.cache_clear()
    families = [fam for g in groups for fam in surface_families(g)]
    for p in primes:                       # prime outer, families inner
        for fam in families:
            frobenius_trace(fam, p)
    assert fiber_trace_table.cache_info().misses == 2 * len(primes)


def test_trace_rows_builds_one_field_per_prime_and_degree():
    primes = (5, 7, 11, 13, 17, 19, 23)
    field_for.cache_clear()
    fiber_trace_table.cache_clear()
    trace_rows([GROUPS[n] for n in MAIN_GROUPS], primes)
    info = field_for.cache_info()
    assert info.misses == 2 * len(primes) and info.hits > 0
