"""Rational functions, Weierstrass models, j-invariants, modular polynomials."""

import random
from fractions import Fraction

import pytest

from noncong.catalog import GROUPS, MAIN_GROUPS
from noncong.series import PuiseuxSeries, eta_power_coeffs
from noncong.surfaces import (BEAUVILLE, INTER_FAMILY_RELATIONS,
                              ISOGENY_BY_INVOLUTION, MissingPolynomialData,
                              ModularPolynomial, PHI1, PHI2, PHI3,
                              ShortWeierstrass, T,
                              WeierstrassFamily, beauville_short,
                              involution_identity_check, isogeny_relation_check,
                              j_invariant, load_modular_polynomial_file,
                              long_to_short, modular_polynomial, rf,
                              relation_j_pair, substitute_parameter)


# --- rational function algebra ----------------------------------------------

def test_rational_function_reduction():
    f = rf([0, 1, 1]) / rf([0, 1])          # t(t+1)/t -> t+1
    assert f == rf([1, 1])
    g = rf([2, 2]) / rf([4])
    assert g == rf([Fraction(1, 2), Fraction(1, 2)])


def test_gcd_reduced_after_arithmetic():
    rng = random.Random(5)
    for _ in range(20):
        f = rf([rng.randint(-4, 4) for _ in range(3)] or [1])
        g = rf([rng.randint(-4, 4) for _ in range(2)] + [1])
        h = (f / g) + (g / (g + 1))
        from noncong.surfaces import _pgcd
        common = _pgcd(h.num, h.den)
        assert len(common) <= 1 or h.is_zero
        assert h.den[-1] == 1  # monic


def test_compose():
    f = (1 + T) / (1 - T)
    inv = (T - 1) / (T + 1)
    assert f.compose(inv) == T


# --- Weierstrass models -------------------------------------------------------

def test_short_model_level8_matches_printed_equation():
    sw = beauville_short("E8")
    assert sw.A == rf([-432, 0, 432, 0, -27])           # -27(t^4 - 16t^2 + 16)
    assert sw.B == rf([3456, 0, -5184, 0, 1620, 0, 54])  # 54(t^2-2)(t^4+32t^2-32)
    assert sw.scale == 2


def test_short_model_level6_matches_printed_equation():
    sw = beauville_short("E6")
    want_a = rf([-1, 3]) * rf([-1, 9, -3, 3]) * Fraction(-432)
    want_b = rf([-1, 6, 3]) * rf([1, -12, 30, -36, 9]) * Fraction(-3456)
    assert sw.A == want_a
    assert sw.B == want_b
    assert sw.scale == Fraction(1, 2)


def test_long_to_short_idempotent_up_to_isomorphism():
    fam = WeierstrassFamily("short", rf([0]), rf([0]), rf([0]), rf([-48]), rf([64]))
    sw = long_to_short(fam, 6)
    orig = ShortWeierstrass(rf([-48]), rf([64]))
    assert j_invariant(sw) == j_invariant(orig)


def test_long_to_short_rejects_zero_scale():
    with pytest.raises(ValueError):
        long_to_short(BEAUVILLE["E8"]["family"], 0)


def test_j_invariant_degenerate_cases():
    assert j_invariant(ShortWeierstrass(rf([0]), rf([1]))) == rf([0])
    assert j_invariant(ShortWeierstrass(rf([1]), rf([0]))) == rf([1728])
    with pytest.raises(ValueError):
        j_invariant(ShortWeierstrass(rf([0]), rf([0])))


def test_j_invariant_scale_independent():
    fam = BEAUVILLE["E8"]["family"]
    assert j_invariant(long_to_short(fam, 2)) == j_invariant(long_to_short(fam, 5))


def test_printed_j_of_level8():
    j = j_invariant(beauville_short("E8"))
    want = (rf([16, 0, -16, 0, 1]) ** 3 * Fraction(-16)
            / (rf([0] * 8 + [1]) * rf([1, 1]) * rf([-1, 1])))
    assert j == want


@pytest.mark.parametrize("label", sorted(BEAUVILLE))
def test_all_six_j_columns(label):
    entry = BEAUVILLE[label]
    j = j_invariant(beauville_short(label))
    assert j == entry["j_column"] * entry["j_factor"], label


def test_substitute_parameter():
    sw = beauville_short("E8")
    cubed = substitute_parameter(sw, rf([0, 0, 0, 1]))
    assert cubed.A == sw.A.compose(rf([0, 0, 0, 1]))
    with pytest.raises(ValueError, match="nonconstant"):
        substitute_parameter(sw, rf([3]))
    assert substitute_parameter(sw, T).A == sw.A


# --- involutions ---------------------------------------------------------------

@pytest.mark.parametrize("name", MAIN_GROUPS)
def test_involution_identity_all_groups(name):
    assert involution_identity_check(GROUPS[name])


def test_involution_identity_simple_cases():
    g = GROUPS["gamma_24.6.1^6"]        # iota = -r, m = t: (-r)^3 = -t
    assert involution_identity_check(g)
    g2 = GROUPS["gamma_8^3.6.3.1^3"]    # 1/(8r^3) = 1/(2(t+1))
    assert involution_identity_check(g2)


# --- modular polynomials -------------------------------------------------------

def test_phi_basic_values():
    j = Fraction(1728)
    assert PHI1.evaluate(j, j) == 0
    assert PHI2.evaluate(Fraction(0), Fraction(0)) == -157464000000000
    assert PHI2.evaluate(Fraction(1728), Fraction(287496)) == 0
    assert PHI2.evaluate(Fraction(8000), Fraction(8000)) == 0
    assert PHI2.evaluate(Fraction(-3375), Fraction(16581375)) == 0
    assert PHI3.evaluate(Fraction(0), Fraction(0)) == 0
    assert PHI3.evaluate(Fraction(8000), Fraction(8000)) == 0
    assert PHI3.evaluate(Fraction(-32768), Fraction(-32768)) == 0


def j_q_series(order):
    sig3 = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            sig3[n] += d ** 3
    e4 = PuiseuxSeries.from_terms([(0, 1)] + [(n, 240 * sig3[n]) for n in range(1, order)],
                                  trunc=order)
    delta_unit = PuiseuxSeries.from_terms(
        list(enumerate(eta_power_coeffs(1, 24, order))), trunc=order)
    jq = (e4 ** 3) * delta_unit.invert()
    return PuiseuxSeries(1, jq.lo - 1, list(jq.coeffs), jq.trunc - 1)


@pytest.mark.parametrize("d,order", [(2, 40), (3, 55)])
def test_phi_against_j_expansion(d, order):
    # Phi_d(j(q), j(q^d)) = 0: an oracle independent of the coefficient tables
    j = j_q_series(order)
    phi = modular_polynomial(d)
    val = phi.evaluate(j, j.substitute_qpower(d))
    assert val.is_zero and val.truncation_exponent > 0


# brute-force isogeny enumeration oracle (textbook 2- and 3-isogeny quotients)

def _j_mod(A, B, p):
    num = -1728 * 64 * pow(A, 3, p)
    den = -16 * (4 * pow(A, 3, p) + 27 * B * B)
    if den % p == 0:
        return None
    return num * pow(den % p, -1, p) % p


def brute_count(A, B, p):
    total = 1
    for x in range(p):
        f = (x ** 3 + A * x + B) % p
        if f == 0:
            total += 1
        elif pow(f, (p - 1) // 2, p) == 1:
            total += 2
    return total


def two_isogenous(A, B, p):
    out = []
    for x0 in range(p):
        if (x0 ** 3 + A * x0 + B) % p == 0:
            t = (3 * x0 * x0 + A) % p
            w = x0 * t % p
            out.append(((A - 5 * t) % p, (B - 7 * w) % p))
    return out


def three_isogenous(A, B, p):
    out = []
    for x0 in range(p):
        if (3 * x0 ** 4 + 6 * A * x0 * x0 + 12 * B * x0 - A * A) % p == 0:
            v = (6 * x0 * x0 + 2 * A) % p
            u = 4 * (x0 ** 3 + A * x0 + B) % p
            w = (u + x0 * v) % p
            out.append(((A - 5 * v) % p, (B - 7 * w) % p))
    return out


@pytest.mark.parametrize("d,neighbors", [(2, two_isogenous), (3, three_isogenous)])
def test_phi_on_isogenous_pairs_over_small_fields(d, neighbors):
    phi = modular_polynomial(d)
    rng = random.Random(d)
    hits = 0
    for p in (101, 103, 107):
        while True:
            A, B = rng.randrange(p), rng.randrange(p)
            if (4 * A ** 3 + 27 * B * B) % p == 0:
                continue
            pairs = neighbors(A, B, p)
            good = [ab for ab in pairs if (4 * ab[0] ** 3 + 27 * ab[1] ** 2) % p]
            if not good:
                continue
            j1 = _j_mod(A, B, p)
            for A2, B2 in good:
                # quotient curve sanity: isogenous curves share point counts
                assert brute_count(A, B, p) == brute_count(A2, B2, p)
                j2 = _j_mod(A2, B2, p)
                assert phi.evaluate_mod(j1, j2, p) == 0
                hits += 1
            if hits >= 6:
                break
    assert hits >= 6


def test_modular_polynomial_file_round_trip(tmp_path):
    path = tmp_path / "phi2.txt"
    lines = ["2", "sym"]
    seen = set()
    for i, j, c in PHI2.terms:
        if (j, i) in seen:
            continue
        seen.add((i, j))
        lines.append(f"{i} {j} {c}")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_modular_polynomial_file(str(path))
    assert loaded.terms == PHI2.terms


def test_missing_polynomial_data(monkeypatch):
    monkeypatch.delenv("NONCONG_MODPOLY_PATH", raising=False)
    with pytest.raises(MissingPolynomialData, match="polynomial data required"):
        modular_polynomial(8)


def test_asymmetric_data_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        ModularPolynomial(2, ((1, 0, 5), (0, 1, 7)))


# --- isogeny relations ----------------------------------------------------------

def test_self_relation_degree_one():
    rel = ISOGENY_BY_INVOLUTION["E8:-t"]
    assert isogeny_relation_check(rel, mode="symbolic")
    assert isogeny_relation_check(rel, mode="sampled")


@pytest.mark.parametrize("samples", [0, -4])
def test_sampled_relation_check_needs_a_sample(samples):
    rel = ISOGENY_BY_INVOLUTION["E8:-t"]
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        isogeny_relation_check(rel, mode="sampled", samples=samples)


def test_self_relation_degree_three_symbolic():
    rel = ISOGENY_BY_INVOLUTION["E6:1/(9t)"]
    assert isogeny_relation_check(rel, mode="symbolic")


def test_inter_family_relation_phi3():
    ja, jb, d = relation_j_pair(INTER_FAMILY_RELATIONS["4a"])
    assert d == 3
    assert PHI3.vanishes_on(ja, jb)
    assert isogeny_relation_check(INTER_FAMILY_RELATIONS["4a"], mode="sampled",
                                  primes=(101, 103), samples=50)


def test_relations_requiring_data_files_raise(monkeypatch):
    monkeypatch.delenv("NONCONG_MODPOLY_PATH", raising=False)
    for key in ("1a", "2a", "3a"):
        with pytest.raises(MissingPolynomialData):
            isogeny_relation_check(INTER_FAMILY_RELATIONS[key], mode="sampled")


def test_isogeny_catalog_data_attached_to_groups():
    g = GROUPS["gamma_18.6.3^3.1^3"]
    data = g.isogeny_data()
    assert data["d"] == 3
    assert data["kernel"] == "x - t^2 + t"
    assert "sqrt(-3)" in data["field"]
    g8 = GROUPS["gamma_8^3.6.3.1^3"]
    assert g8.isogeny_data()["d"] == 8
    assert "sqrt(-1)" in g8.isogeny_data()["field"]


def test_rational_function_evaluate():
    f = (1 + T) / (1 - T)
    assert f.evaluate(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError, match="pole"):
        f.evaluate(1)
