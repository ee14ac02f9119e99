"""Rational functions, Weierstrass models, j-invariants, modular polynomials."""

import random
import re
from fractions import Fraction

import pytest

import noncong.surfaces as surfaces
from noncong.catalog import GROUPS, MAIN_GROUPS
from noncong.series import PuiseuxSeries, eta_power_coeffs
from noncong.surfaces import (BEAUVILLE, COVERINGS, INTER_FAMILY_RELATIONS,
                              ISOGENY_BY_INVOLUTION, IsogenyRelation,
                              MissingPolynomialData, ModularPolynomial,
                              PHI1, PHI2, PHI3, RationalFunction,
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


def schoolbook_pmul(a, b):
    """The double loop over Fractions the shared product replaced: the
    oracle for ``surfaces._pmul``."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_poly(rng, length, zeros=0.3):
    """Rational entries, some zero (the top one too), a few large."""
    def entry():
        if rng.random() < zeros:
            return Fraction(0)
        size = 10 ** rng.choice((1, 1, 3, 30))
        return Fraction(rng.randint(-size, size), rng.choice((1, 1, 2, 9, 10 ** 12)))
    return tuple(entry() for _ in range(length))


def test_pmul_matches_schoolbook():
    rng = random.Random(22)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1), (1, 7), (7, 1), (2, 9), (12, 5), (30, 30)]
    for la, lb in shapes * 20:
        a, b = random_poly(rng, la), random_poly(rng, lb)
        assert surfaces._pmul(a, b) == schoolbook_pmul(a, b), (a, b)
        assert surfaces._pmul(b, a) == schoolbook_pmul(a, b), (a, b)
    assert surfaces._pmul((Fraction(0),) * 3, (Fraction(1, 3),)) == ()


def at(f, x):
    """f(x) for a rational function f at a rational x; None at a pole."""
    def value(p):
        return sum((c * x ** i for i, c in enumerate(p)), Fraction(0))
    den = value(f.den)
    return None if den == 0 else value(f.num) / den


@pytest.mark.parametrize("deg_num,deg_den", [(0, 0), (0, 2), (1, 3), (3, 1), (2, 2), (4, 0)])
def test_compose_at_sample_points(deg_num, deg_den):
    """(f o g)(x) = f(g(x)) wherever both sides are defined, for numerator
    degrees below, equal to and above the denominator's, on either side."""
    rng = random.Random(100 * deg_num + deg_den)
    shapes = [(deg_num, deg_den), (deg_den, deg_num), (1, 1), (2, 0)]
    for _ in range(15):
        (fn, fd), (gn, gd) = rng.choice(shapes), rng.choice(shapes)
        f = RationalFunction(random_poly(rng, fn, 0) + (Fraction(rng.randint(1, 5)),),
                             random_poly(rng, fd, 0) + (Fraction(1),))
        g = RationalFunction(random_poly(rng, gn, 0) + (Fraction(rng.randint(1, 5)),),
                             random_poly(rng, gd, 0) + (Fraction(1),))
        h = f.compose(g)
        tested = 0
        for x in (Fraction(k, 7) for k in range(-20, 21)):
            inner = at(g, x)
            outer = None if inner is None else at(f, inner)
            if outer is not None and at(h, x) is not None:
                assert at(h, x) == outer, (f, g, x)
                tested += 1
        assert tested >= 30, (f, g)


# --- Weierstrass models -------------------------------------------------------

def test_short_model_level8_matches_printed_equation():
    sw = beauville_short("E8")
    assert sw.A == rf([-432, 0, 432, 0, -27])           # -27(t^4 - 16t^2 + 16)
    assert sw.B == rf([3456, 0, -5184, 0, 1620, 0, 54])  # 54(t^2-2)(t^4+32t^2-32)
    assert BEAUVILLE["E8"]["scale"] == 2


def test_short_model_level6_matches_printed_equation():
    sw = beauville_short("E6")
    want_a = rf([-1, 3]) * rf([-1, 9, -3, 3]) * Fraction(-432)
    want_b = rf([-1, 6, 3]) * rf([1, -12, 30, -36, 9]) * Fraction(-3456)
    assert sw.A == want_a
    assert sw.B == want_b
    assert BEAUVILLE["E6"]["scale"] == Fraction(1, 2)


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
    assert j == entry["j_column"]() * entry["j_factor"], label


def test_substitute_parameter():
    sw = beauville_short("E8")
    cubed = substitute_parameter(sw, rf([0, 0, 0, 1]))
    assert cubed.A == sw.A.compose(rf([0, 0, 0, 1]))
    with pytest.raises(ValueError, match="nonconstant"):
        substitute_parameter(sw, rf([3]))
    assert substitute_parameter(sw, T).A == sw.A


# --- covering data and involutions ------------------------------------------------

def test_covering_data_for_every_main_group_in_catalog_order():
    assert tuple(COVERINGS) == MAIN_GROUPS


def test_covering_maps_invert():
    for name in MAIN_GROUPS:
        cover = COVERINGS[name]
        assert cover.covering_m.compose(cover.covering_m_inv) == T, name


def test_involution_is_involution():
    for name in MAIN_GROUPS:
        cover = COVERINGS[name]
        assert cover.relation.sub_b.compose(cover.relation.sub_b) == T, name
        assert cover.involution_cover.compose(cover.involution_cover) == T, name


def test_covering_involution_is_its_self_relation():
    # each base involution i(t) is stored once, as the sub_b of a self
    # relation (sub_a = t) over the family the group's surfaces live on
    for name in MAIN_GROUPS:
        rel = COVERINGS[name].relation
        assert rel in ISOGENY_BY_INVOLUTION.values(), name
        assert all(label.startswith(rel.level + "(")
                   for label, _ in COVERINGS[name].twists), name


def _spelled(text):
    """A map as the catalog writes it ("2r^3-1", "1/(24r^3+9)") at r = T."""
    text = re.sub(r"(\d)([r(])", r"\1*\2", text.replace("^", "**"))
    return eval(text, {"r": T})


@pytest.mark.parametrize("name", MAIN_GROUPS)
def test_each_label_spells_its_derived_map(name):
    # the label E8(g(r)) names the family's map f(r^3) = m^-1(k r^3),
    # derived from the covering map m and the cube twist k
    for label, (a, b, c, d) in COVERINGS[name].family_maps():
        text = label.partition("(")[2][:-1]
        assert _spelled(text) == rf([b, a], [d, c]).compose(T ** 3), label


def test_covering_map_is_the_records_mobius_map():
    for name in MAIN_GROUPS:
        a, b, c, d = COVERINGS[name].m
        assert COVERINGS[name].covering_m == (a * T + b) / (c * T + d), name


@pytest.mark.parametrize("key", ISOGENY_BY_INVOLUTION)
def test_self_relation_name_spells_its_involution(key):
    level, _, text = key.partition(":")
    rel = ISOGENY_BY_INVOLUTION[key]
    assert rel.level == level
    assert rel.sub_a == T
    assert eval(re.sub(r"(\d)t", r"\1*t", text), {"t": T}) == rel.sub_b


def test_involution_identity_needs_covering_data():
    with pytest.raises(ValueError, match="no involution data"):
        involution_identity_check(GROUPS["gamma_24.3.2^3.1^3B"])


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


def test_modular_polynomial_file_one_sided_without_sym(tmp_path):
    """Every file is read as symmetric: the pairs i >= j alone, with no
    `sym` line, load as PHI2."""
    path = tmp_path / "phi2.txt"
    path.write_text("2\n" + "".join(f"{i} {j} {c}\n" for i, j, c in PHI2.terms if i >= j))
    assert load_modular_polynomial_file(str(path)).terms == PHI2.terms


def test_modular_polynomial_file_comments(tmp_path):
    path = tmp_path / "phi2.txt"
    path.write_text("# Phi_2\n2   # first line: d\nsym\n"
                    + "".join(f"{i} {j} {c}  # c X^i Y^j\n" for i, j, c in PHI2.terms))
    assert load_modular_polynomial_file(str(path)).terms == PHI2.terms


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


@pytest.mark.parametrize("rel", [INTER_FAMILY_RELATIONS["4a"], ISOGENY_BY_INVOLUTION["E8:-t"]],
                         ids=["4a", "E8:-t"])
def test_sampled_relation_check_needs_a_point_per_prime(rel):
    with pytest.raises(ValueError, match="mod p = 2"):
        isogeny_relation_check(rel, mode="sampled", primes=(2,))


@pytest.mark.parametrize("rel", [
    IsogenyRelation("E6", T, 1 / (8 * T), 3),           # E6:1/(9t), 9 -> 8
    IsogenyRelation("E6", 1 - 8 / (3 * T), 1 / (9 - 25 * (1 / T)), 3),   # 4a, 24 -> 25
    IsogenyRelation("E8", T, T + 1, 1),                 # E8:-t, -t -> t + 1
], ids=["E6:1/(8t)", "4a-perturbed", "E8:t+1"])
def test_perturbed_relation_fails_in_both_modes(rel):
    assert not isogeny_relation_check(rel, mode="symbolic")
    assert not isogeny_relation_check(rel, mode="sampled")


def test_self_relation_degree_three_symbolic():
    rel = ISOGENY_BY_INVOLUTION["E6:1/(9t)"]
    assert isogeny_relation_check(rel, mode="symbolic")


def test_inter_family_relation_phi3():
    ja, jb = relation_j_pair(INTER_FAMILY_RELATIONS["4a"])
    assert INTER_FAMILY_RELATIONS["4a"].d == 3
    assert PHI3.vanishes_on(ja, jb)
    assert isogeny_relation_check(INTER_FAMILY_RELATIONS["4a"], mode="sampled",
                                  primes=(101, 103), samples=50)


def test_relations_requiring_data_files_raise(monkeypatch):
    monkeypatch.delenv("NONCONG_MODPOLY_PATH", raising=False)
    for key in ("1a", "2a", "3a"):
        with pytest.raises(MissingPolynomialData):
            isogeny_relation_check(INTER_FAMILY_RELATIONS[key], mode="sampled")


def test_isogeny_catalog_data_attached_to_groups():
    rel = COVERINGS["gamma_18.6.3^3.1^3"].relation
    assert rel.d == 3
    assert rel.kernel == "x - t^2 + t"
    assert "sqrt(-3)" in rel.field
    g8 = COVERINGS["gamma_8^3.6.3.1^3"].relation
    assert g8.d == 8
    assert "sqrt(-1)" in g8.field


@pytest.mark.parametrize("key", INTER_FAMILY_RELATIONS)
def test_relation_j_pair_matches_weierstrass_substitution(key):
    # oracle: substitute each map into the short model, then take j
    rel = INTER_FAMILY_RELATIONS[key]
    sw = beauville_short(rel.level)
    assert relation_j_pair(rel) == (j_invariant(substitute_parameter(sw, rel.sub_a)),
                                    j_invariant(substitute_parameter(sw, rel.sub_b)))


@pytest.mark.parametrize("rel", [INTER_FAMILY_RELATIONS["1a"],
                                 ISOGENY_BY_INVOLUTION["E8:(1-t)/(1+t)"]],
                         ids=["1a", "E8:(1-t)/(1+t)"])
def test_missing_polynomial_refused_before_j_is_built(monkeypatch, rel):
    def no_algebra(sw):
        raise AssertionError("j built before Phi_d was fetched")

    monkeypatch.delenv("NONCONG_MODPOLY_PATH", raising=False)
    monkeypatch.setattr(surfaces, "j_invariant", no_algebra)
    for mode in ("sampled", "symbolic"):
        with pytest.raises(MissingPolynomialData, match="Phi_8"):
            isogeny_relation_check(rel, mode=mode)

