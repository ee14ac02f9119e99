"""Finite fields, point counting, fiber classification, Frobenius traces."""

import csv
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from noncong.catalog import (GROUPS, MAIN_GROUPS, NEWFORMS, character_value,
                             get_group, kronecker_symbol, newform_an,
                             primes_upto)
from noncong.series import exact_integers
from noncong.surfaces import beauville_short
from noncong.traces import (BadPrimeError, FIBER_VALUE, PrimeField,
                            QuadExtField, TABLE8_PRIMES,
                            _poly_eval, classify_singular_fiber,
                            count_points_short, fiber_trace_table, field_for,
                            frobenius_trace, local_trace, quadratic_character,
                            SurfaceFamily, surface_families, trace_pair,
                            trace_rows, rows_to_csv)

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


def field_on(p, nu):
    """F_p(sqrt(nu)) on a nonresidue nu chosen here; the library builds
    every F_{p^2} on the smallest one."""
    assert pow(nu, (p - 1) // 2, p) == p - 1
    field = QuadExtField(p)
    field.nu = nu
    field._build_logs()
    return field


# ids p-None: the field is built on the default nonresidue
@pytest.mark.parametrize("p", [5, 7], ids=lambda p: f"{p}-None")
def test_extension_arithmetic_matches_pair_arithmetic(p):
    f = QuadExtField(p)
    assert pow(f.nu, (p - 1) // 2, p) == p - 1
    assert all(pow(n, (p - 1) // 2, p) == 1 for n in range(1, f.nu))
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


def test_surface_families_read_the_parent_record():
    # a group over a third parent gets that parent's Beauville family, not E6
    g = GROUPS["gamma_18.6.3^3.1^3"]
    other = replace(g, parent=replace(g.parent, label="Gamma1(5)", family="E5"))
    fams = surface_families(other)
    assert fams and all(f.level == "E5" for f in fams)
    assert [f.mobius for f in fams] == [f.mobius for f in surface_families(g)]


# f(s) = (a s + b) / (c s + d) of each family, as the surface parameterization
# of the catalog spells it; every bad set is {2, 3}
FAMILY_MAPS = {
    "E8(r^3)": (1, 0, 0, 1), "E8((r^3-1)/(r^3+1))": (1, -1, 1, 1),
    "E8(r^3-1)": (1, -1, 0, 1), "E8(2r^3-1)": (2, -1, 0, 1), "E8(4r^3-1)": (4, -1, 0, 1),
    "E8(2/(r^3-2))": (0, 2, 1, -2), "E6(3r^3)": (3, 0, 0, 1), "E6(9r^3)": (9, 0, 0, 1),
    "E6((1-3r^3)/(9-3r^3))": (3, -1, 3, -9), "E6(1-24/r^3)": (1, -24, 1, 0),
    "E6(1-8/(3r^3))": (3, -8, 3, 0), "E6(1/(24r^3+9))": (0, 1, 24, 9),
}


def test_family_maps_derive_from_the_covers():
    fams = [f for name in MAIN_GROUPS for f in surface_families(GROUPS[name])]
    assert {f.label: f.mobius for f in fams} == FAMILY_MAPS
    assert len(fams) == 12 and all(f.bad_primes() == {2, 3} for f in fams)


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
        for p in TABLE8_PRIMES:
            assert trace_pair(fa, p) == trace_pair(fb, p), (na, nb, p)


def test_fingerprint_of_row_pair_1a_1b():
    fa = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    fb = surface_families(GROUPS["gamma_8^3.2^3.3^2"])[0]
    pairs = {p: (trace_pair(fa, p), trace_pair(fb, p)) for p in TABLE8_PRIMES}
    assert all(ta2 == tb2 for (_, ta2), (_, tb2) in pairs.values())
    differs = {p for p, ((ta, _), (tb, _)) in pairs.items() if ta != tb}
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
    for p in (5, 7):
        assert trace_pair(fam, p) == trace_pair(fam, p)


@pytest.mark.parametrize("p,squared,nonresidue", [
    (5, False, None), (7, False, None), (13, False, None), (13, True, 5)])
def test_log_tables(p, squared, nonresidue):
    field = field_on(p, nonresidue) if nonresidue else field_for(p, squared)
    q, E, L = field.q, field.exp, field.log
    nu = field.nu if squared else 0
    pair = (lambda i: divmod(i, p)) if squared else (lambda i: (i, 0))
    one = pair(field.constant(1))

    def power(u, e):
        acc = one
        for _ in range(e):
            acc = pair_mul(p, nu, acc, u)
        return acc

    assert sorted(E.tolist()) == list(range(1, q))
    assert E[0] == field.constant(1) and E[1] == field.g
    assert all(E[L[x]] == x for x in range(1, q))
    inv, chi = field.inv_table(), field.chi_table
    assert inv[0] == 0 and chi[0] == 0
    for x in range(1, q):
        u = pair(x)
        assert pair_mul(p, nu, u, pair(inv[x])) == one
        euler = power(u, (q - 1) // 2)
        assert euler in (one, pair(field.constant(-1)))
        assert chi[x] == (1 if euler == one else -1)
        if chi[x] == 1:
            root = pair(E[L[x] // 2])
            assert pair_mul(p, nu, root, root) == u


def oracle_trace(fam, field):
    return -sum(local_trace(fam, field, pt).value for pt in [*field.elements(), "inf"])


ALL_FAMILIES = [fam for name in MAIN_GROUPS for fam in surface_families(GROUPS[name])]


def default_model_ids(cases):
    """Ids p-squared-None for (p, squared) cases: the fast path builds F_q
    on the default nonresidue only."""
    return [f"{p}-{squared}-None" for p, squared in cases]


CUBE_COVER_CASES = [(7, False), (13, False), (11, False), (17, False),
                    (5, True), (7, True), (1009, False)]


@pytest.mark.parametrize("p,squared", CUBE_COVER_CASES,
                         ids=default_model_ids(CUBE_COVER_CASES))
def test_cube_cover_sum_matches_scalar_oracle(p, squared):
    field = field_for(p, squared)
    for fam in ALL_FAMILIES:
        assert frobenius_trace(fam, p, squared) == oracle_trace(fam, field), fam.label


def test_nonresidue_choice_does_not_change_trace():
    """The traces are invariants of the surfaces: the scalar oracle on
    F_13(sqrt(nu)) for a second nonresidue nu agrees with the fast path."""
    p = 13
    alt = next(n for n in range(2, p) if quadratic_character(PrimeField(p), n) == -1
               and n != field_for(p, True).nu)
    field = field_on(p, alt)
    for fam in ALL_FAMILIES:
        assert frobenius_trace(fam, p, True) == oracle_trace(fam, field), fam.label


def test_cube_cover_sum_at_211_squared_sampled():
    """The cube-cover sum equals the sum over every r of the table read at
    num(r) / den(r); a sample of those reads equals the scalar oracle."""
    p = 211
    field = field_for(p, True)
    r = np.arange(field.q, dtype=np.int64)
    for level in ("E8", "E6"):
        tau, tau_inf = fiber_trace_table(level, p, True)
        for fam in [f for f in ALL_FAMILIES if f.level == level]:
            a, b, c, d = fam.mobius
            num = _poly_eval(field, (b, 0, 0, a), r)
            den = _poly_eval(field, (d, 0, 0, c), r)
            s = field.mul_vec(num, field.inv_table()[den])
            at_inf = tau_inf if c % p == 0 else int(tau[field.constant(a * pow(c, -1, p))])
            direct = int(tau[s[den != 0]].sum()) + int((den == 0).sum()) * tau_inf + at_inf
            assert frobenius_trace(fam, p, True) == -direct, fam.label
            for x in random.Random(fam.label).sample(range(field.q), 5):
                want = tau_inf if den[x] == 0 else int(tau[s[x]])
                assert local_trace(fam, field, x).value == want


@pytest.mark.parametrize("mobius", [(1, 0, 1), (1, 0, 0, 1, 0), [1, 0, 0, 1],
                                    (1, 0, 0, 1.0), (1, Fraction(1, 2), 0, 1), "1001"],
                         ids=["three", "five", "list", "float", "fraction", "string"])
def test_malformed_mobius_map_refused(mobius):
    with pytest.raises(ValueError, match="not four integers"):
        SurfaceFamily("E8(sub)", "E8", mobius)


def test_mobius_map_normalised():
    # content divided out, sign fixed so that c > 0, or d > 0 when c = 0
    assert SurfaceFamily("f", "E8", (-2, 4, -6, 8)).mobius == (1, -2, 3, -4)
    assert SurfaceFamily("f", "E8", (-3, 0, 0, -6)).mobius == (1, 0, 0, 2)
    assert SurfaceFamily("f", "E8", (4, -2, 0, -2)).mobius == (-2, 1, 0, 1)


def test_degenerate_mobius_map_refused():
    fam = SurfaceFamily("E8(5r^3-1)", "E8", (5, -1, 0, 1))
    assert fam.mobius == (5, -1, 0, 1) and fam.bad_primes() == {2, 3, 5}
    with pytest.raises(BadPrimeError):
        frobenius_trace(fam, 5)
    with pytest.raises(ValueError, match="constant"):
        SurfaceFamily("E8(2)", "E8", (0, 2, 0, 1))
    with pytest.raises(ValueError, match="constant"):
        SurfaceFamily("E8(0)", "E8", (0, 0, 0, 0))


# Tr_{p^2} = k (A_p^2 - 2 chi(p) p^2) with k = psi(c) + conj psi(c) for the
# cubic residue character psi at p = 1 mod 3 (c = 1 unless listed here), and
# k = 2 (3/p) for the L432 families, else 2, at p = 2 mod 3
CUBE_CONSTANT = {"E8(r^3-1)": 2, "E8(2r^3-1)": 2, "E6(3r^3)": 3, "E6(1-24/r^3)": 3}


def ap_squared(ap):
    terms = [c * c * d for c, d in zip(ap.c, (1, ap.d1, ap.d2, ap.d1 * ap.d2)) if c]
    assert len(terms) <= 1
    return sum(terms)


def test_traces_against_newform_coefficients():
    checks = 0
    for name in MAIN_GROUPS:
        group = GROUPS[name]
        for fam in surface_families(group):
            for p in [p for p in primes_upto(150) if p >= 5]:
                try:
                    ap = newform_an(group.newform, p)
                except KeyError:            # past the stored L243/L486 tables
                    continue
                tr, tr2 = trace_pair(fam, p)
                chi = character_value(NEWFORMS[group.newform].character, p)
                if p % 3 == 1:
                    c = CUBE_CONSTANT.get(fam.label, 1)
                    k = 2 if pow(c, (p - 1) // 3, p) == 1 else -1
                else:
                    k = 2 * kronecker_symbol(3, p) if group.newform == "L432" else 2
                assert tr2 == k * (ap_squared(ap) - 2 * chi * p * p), (fam.label, p)
                checks += 1
                if group.newform in ("L243", "L486"):
                    # exact: Tr_p = k A_p with A_p rational at p = 1 mod 3,
                    # and Tr_p = 0 at p = 2 mod 3
                    if p % 3 == 1:
                        assert ap.is_rational and tr == k * ap.c[0], (fam.label, p)
                    else:
                        assert tr == 0, (fam.label, p)
                    checks += 1
                elif ap.is_rational and ap.c[0]:
                    assert tr / ap.c[0] in (1, -1, 2, -2), (fam.label, p)
                    checks += 1
    assert checks == 414


def test_bad_primes_refused():
    fam = surface_families(GROUPS["gamma_24.6.1^6"])[0]
    for p in (2, 3):
        with pytest.raises(BadPrimeError):
            frobenius_trace(fam, p)
    assert fam.bad_primes() == {2, 3}
    scaled = SurfaceFamily("E8(5r^3/7)", "E8", (5, 0, 0, 7))
    assert scaled.bad_primes() == {2, 3, 5, 7}      # ad - bc = 35
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


FIBER_TABLE_CASES = [(p, squared) for squared in (False, True) for p in (5, 7, 11, 13)]


@pytest.mark.parametrize("level", ["E8", "E6"])
@pytest.mark.parametrize("p,squared", FIBER_TABLE_CASES,
                         ids=default_model_ids(FIBER_TABLE_CASES))
def test_fiber_table_matches_scalar_oracle(level, p, squared):
    field = field_for(p, squared)
    tau, _ = fiber_trace_table(level, p, squared)
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
    assert exact_integers(noisy).tolist() == exact.tolist()
    noisy[17] += 0.3
    with pytest.raises(AssertionError, match="rounding margin"):
        exact_integers(noisy)


def test_hasse_guard_refuses_corrupted_table(monkeypatch):
    import noncong.traces as traces
    monkeypatch.setattr(traces, "exact_integers",
                        lambda values: exact_integers(values) + 7)
    field_for.cache_clear()            # the fields hold the shared character sums
    fiber_trace_table.cache_clear()
    with pytest.raises(AssertionError, match="Hasse bound"):
        fiber_trace_table("E8", 11, False)


def test_fp2_tables_stay_within_70_bytes_per_element():
    """The tracemalloc peak of F_{211^2}, its character sums and the E8 and
    E6 tables, from empty caches, per element of the field: 113 bytes when
    the grid and the three correlations were built whole.  numpy reports its
    buffers to tracemalloc, so the figure repeats exactly."""
    import tracemalloc
    field_for(5, True).character_sums()         # first-call imports
    field_for.cache_clear()
    fiber_trace_table.cache_clear()
    tracemalloc.start()
    try:
        field = field_for(211, True)
        field.character_sums()
        fiber_trace_table("E8", 211, True)
        fiber_trace_table("E6", 211, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / field.q <= 70


def test_character_sums_computed_once_per_field(monkeypatch):
    import noncong.traces as traces
    calls, compute = [], traces._character_sums

    def counted(field):
        calls.append(field.q)
        return compute(field)

    monkeypatch.setattr(traces, "_character_sums", counted)
    field_for.cache_clear()
    fiber_trace_table.cache_clear()
    fam8, fam6 = (next(f for f in ALL_FAMILIES if f.level == level) for level in ("E8", "E6"))
    for p in (13, 17):
        trace_pair(fam8, p)
        trace_pair(fam6, p)
        assert field_for(p, True).character_sums().dtype == np.int16
    assert calls == [13, 169, 17, 289]


def test_cache_keys_do_not_depend_on_spelling():
    field_for.cache_clear()
    fiber_trace_table.cache_clear()
    assert fiber_trace_table("E8", 13, 1) is fiber_trace_table("E8", 13, True)
    with pytest.raises(TypeError):
        fiber_trace_table("E8", 13, squared=True)
    assert fiber_trace_table.cache_info().currsize == 1
    with pytest.raises(TypeError):
        field_for(13, squared=True)
    assert field_for.cache_info().currsize == 2         # F_13 and F_169


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
