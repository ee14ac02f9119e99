"""Group catalog: structure, basis construction, coefficient goldens, newforms."""

import csv
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import published_tables
from noncong.catalog import (ETA_B6, ETA_D6, GROUPS, MAIN_GROUPS, NEWFORMS,
                             PARENT6, PARENT8, basis_form, basis_q_expansions,
                             character_value, coefficient_sequence,
                             construct_basis, cusp_regularity,
                             derived_cusp_counts, dim_cusp_forms, export_text,
                             get_group, hecke_check, kronecker_symbol,
                             newform_an, newform_coefficients,
                             noncongruence_test, primes_upto)
from noncong.residues import coefficient_residues, lattice_indices
from noncong.series import EtaQuotient

ALL_NAMES = tuple(GROUPS)
GOLDEN = Path(__file__).resolve().parent.parent / "golden"


# --- structural ------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_widths_sum_to_36(name):
    assert sum(GROUPS[name].cusp_widths) == 36


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generators_are_parabolic_with_det_one(name):
    for (a, b), (c, d) in GROUPS[name].generators:
        assert a * d - b * c == 1
        assert abs(a + d) == 2


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stored_widths_are_the_generators_widths(name):
    # a parabolic M has width gcd(M - sI), s the sign of its trace; the eighth
    # cusp closes the index
    g = GROUPS[name]
    widths = [gcd(a - s, b, c, d - s) for (a, b), (c, d) in g.generators
              for s in [1 if a + d > 0 else -1]]
    assert sorted(g.cusp_widths) == sorted(widths + [36 - sum(widths)])


def test_width_at_infinity_read_from_the_generators():
    assert [GROUPS[n].mu for n in ALL_NAMES] == [1, 3, 1, 1, 3, 1, 3, 1, 3]
    g = GROUPS["gamma_24.6.1^6"]
    for gens in (g.generators[:3], g.generators + (((1, 2), (0, 1)),)):
        with pytest.raises(ValueError, match="fix infinity, not one"):
            g._replace(generators=gens).mu


@pytest.mark.parametrize("name", ALL_NAMES)
def test_noncongruence_verdicts(name):
    assert noncongruence_test(GROUPS[name].cusp_widths) == "noncongruence"


def test_sebbar_multisets_are_inconclusive():
    assert noncongruence_test((27, 3, 1, 1, 1, 1, 1, 1)) == "inconclusive"
    assert noncongruence_test((18, 9, 2, 2, 2, 1, 1, 1)) == "inconclusive"
    assert noncongruence_test((6, 6, 6, 6, 3, 3, 3, 3)) == "inconclusive"


def test_noncongruence_test_wrong_index_is_error():
    with pytest.raises(ValueError, match="out of scope"):
        noncongruence_test((3, 3, 3, 3))


def test_cusp_regularity_classification():
    assert cusp_regularity([((1, 1), (0, 1))]) == ["regular"]
    assert cusp_regularity([((-1, -1), (0, -1))]) == ["irregular"]
    assert cusp_regularity([((2, 1), (1, 1))]) == ["notParabolic"]
    with pytest.raises(ValueError, match="determinant"):
        cusp_regularity([((2, 0), (0, 1))])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_derived_cusp_counts_and_dimension(name):
    # u, u' are derived data: trace +2 generators, eight cusps per group
    u, u_irr = derived_cusp_counts(GROUPS[name])
    assert (u, u_irr) == (8, 0)
    assert dim_cusp_forms(3, 0, u, u_irr) == 2


def test_dimension_formula_values():
    assert dim_cusp_forms(3, 0, 8, 0) == 2
    assert dim_cusp_forms(3, 1, 0, 0) == 0
    assert dim_cusp_forms(3, 0, 6, 1) == 2
    with pytest.raises(ValueError):
        dim_cusp_forms(4, 0, 8, 0)
    with pytest.raises(ValueError, match="non-integral"):
        dim_cusp_forms(3, 0, 7, 0)


def test_parents_and_variants_are_record_fields():
    assert {g.parent for g in GROUPS.values()} == {PARENT8, PARENT6}
    assert (PARENT8.family, PARENT6.family) == ("E8", "E6")
    variants = {n: g.variant_of for n, g in GROUPS.items() if g.variant_of}
    assert variants == {"gamma_24.3.2^3.1^3B": "gamma_24.3.2^3.1^3"}
    assert MAIN_GROUPS == tuple(n for n in GROUPS if n not in variants)
    # the level-6 hauptmodul is X = b/d of the weight-1 forms
    b, d = ETA_B6.expansion(30), ETA_D6.expansion(30)
    assert PARENT6.hauptmodul.expansion(30).agrees_with(b / d, through=28)


def test_b_variant_generators_lie_in_parent():
    # conjugates of the gamma_24.3.2^3.1^3 generators by (0 -1; 8 0):
    # lower-left divisible by 8, diagonal 1 mod 4
    for (a, b), (c, d) in GROUPS["gamma_24.3.2^3.1^3B"].generators:
        assert c % 8 == 0
        assert a % 4 == 1 and d % 4 == 1


# --- q-expansions and construction ------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_basis_matches_printed_expansions(name):
    h1, h2 = basis_q_expansions(GROUPS[name], 30)
    g = GROUPS[name]
    for series, unit, printed in ((h1, g.h1_unit, published_tables.BASIS_EXPANSIONS[name][0]),
                                  (h2, g.h2_unit, published_tables.BASIS_EXPANSIONS[name][1])):
        for n, c in printed:
            assert series.coefficient(n * unit) == c, (name, n)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_prime_coefficient_tables(name):
    table = published_tables.PRIME_COEFFS[name]
    pmax = max(table)
    a = coefficient_sequence(GROUPS[name], "a", pmax)
    b = coefficient_sequence(GROUPS[name], "b", pmax)
    for p, (ap, bp) in table.items():
        assert a[p] == ap, (name, "a", p)
        assert b[p] == bp, (name, "b", p)


PRIMES_5_97 = [p for p in primes_upto(97) if p >= 5]
# one prime modulus besides the p^2: the largest prime below 2^16
MODULI = tuple(p * p for p in PRIMES_5_97) + (65521,)


def _exact_mod(seq, m):
    return [x.numerator * pow(x.denominator, -1, m) % m for x in seq.values()]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coefficient_residues_match_exact_mod_p2(name):
    g = GROUPS[name]
    for which, rows in zip("ab", coefficient_residues(g, 500, MODULI)):
        exact = coefficient_sequence(g, which, 500)
        assert rows.shape == (len(MODULI), 500)
        for m, row in zip(MODULI, rows.tolist()):
            assert row == _exact_mod(exact, m), (which, m)
        # off the exponent lattice a_n is exactly zero
        lattice = lattice_indices(g, which, np.arange(1, 501))
        assert all(exact[n] == 0 for n in exact if lattice[n - 1] < 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_lattice_indices_equal_the_scalar_definition(name):
    # a_n sits at x^j, x = q^g, with 72 mu g j = 72 n unit - s mu
    g = GROUPS[name]
    for which, (eq, unit) in zip("ab", ((g.h1, g.h1_unit), (g.h2, g.h2_unit))):
        step, shift = 72 * unit, eq.prefactor24 * g.mu
        den = 72 * g.mu * gcd(*(k for k, _ in eq.factors))
        want = []
        for n in range(1, 10001):
            j, r = divmod(step * n - shift, den)
            want.append(j if j >= 0 and r == 0 else -1)
        got = lattice_indices(g, which, np.arange(1, 10001, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want, which


def test_coefficient_residues_match_exact_at_1000():
    g = GROUPS["gamma_24.6.1^6"]
    assert g.mu == 1
    for which, rows in zip("ab", coefficient_residues(g, 1000, MODULI)):
        exact = coefficient_sequence(g, which, 1000)
        assert not rows.flags.writeable
        for m, row in zip(MODULI, rows.tolist()):
            assert row == _exact_mod(exact, m), (which, m)
    # no moduli, no Newton: two empty matrices of the bound's width
    assert [rows.shape for rows in coefficient_residues(g, 1000, ())] == [(0, 1000)] * 2


# h1 h2 = G^3 with G = prod eta(k z)^(g_k); see notes/decisions.md
BASIS_CUBE_ROOTS = {
    "gamma_24.6.1^6": {4: 12},
    "gamma_8^3.2^3.3^2": {2: 12},
    "gamma_8^3.6.3.1^3": {1: 4, 2: 2, 4: 2, 8: 4},
    "gamma_24.3.2^3.1^3": {1: -4, 2: 14, 4: -2, 8: 4},
    "gamma_24.3.2^3.1^3B": {1: 4, 2: -2, 4: 14, 8: -4},
    "gamma_18.6.3^3.1^3": {2: 6, 6: 6},
    "gamma_9.6^3.3.2^3": {1: 6, 3: 6},
    "gamma_9.6^4.1^3": {1: 9, 2: -3, 3: -3, 6: 9},
    "gamma_18.3^4.2^3": {1: -3, 2: 9, 3: 9, 6: -3},
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_basis_product_is_a_cube_of_an_eta_quotient(name):
    g = GROUPS[name]
    e1, e2 = dict(g.h1.factors), dict(g.h2.factors)
    total = {k: e1.get(k, 0) + e2.get(k, 0) for k in e1.keys() | e2.keys()}
    assert all(e % 3 == 0 for e in total.values())
    assert {k: e // 3 for k, e in total.items() if e} == BASIS_CUBE_ROOTS[name]
    assert gcd(*e1) == gcd(*e2)


@pytest.mark.parametrize("h1,h2", [
    ({1: 4, 2: -6, 4: 20}, {1: -4, 2: 6, 4: 17}),   # 4: 37 is not a multiple of 3
    ({1: 3, 2: 3}, {2: 3}),                          # scale gcds 1 and 2
])
def test_coefficient_residues_refuse_a_pair_without_common_cube(h1, h2):
    g = GROUPS["gamma_24.6.1^6"]._replace(name="no common cube", h1=EtaQuotient.of(h1),
                                          h2=EtaQuotient.of(h2))
    with pytest.raises(ValueError, match="not the cube of an eta product"):
        coefficient_residues(g, 50, (25,))


@pytest.mark.parametrize("name", MAIN_GROUPS)
def test_construct_basis_equals_catalog_to_order_50(name):
    built1, built2 = construct_basis(GROUPS[name], order=50)
    cat1, cat2 = basis_q_expansions(GROUPS[name], 51)
    g = GROUPS[name]
    assert built1.agrees_with(cat1, through=Fraction(50, g.mu))
    assert built2.agrees_with(cat2, through=Fraction(50, g.mu))


def test_construct_basis_unavailable_for_conjugate_variant():
    with pytest.raises(ValueError, match="no cube-root construction"):
        construct_basis(GROUPS["gamma_24.3.2^3.1^3B"])


def test_one_form_is_built_alone():
    # coefficient_sequence and `expand <group> h1` need one form, not the pair
    g = GROUPS["gamma_9.6^4.1^3"]._replace(name="one form only")
    basis_form.cache_clear()
    a = coefficient_sequence(g, "a", 40)
    assert basis_form.cache_info().currsize == 1
    h1, h2 = basis_q_expansions(g, 41)
    assert basis_form.cache_info().currsize == 2
    assert a == {n: h1.coefficient(n * g.h1_unit) for n in range(1, 41)}


def test_specific_coefficients():
    h1, h2 = basis_q_expansions(get_group("24.6.1^6"), 10)
    assert h1.coefficient(5) == Fraction(-850, 243)
    b = coefficient_sequence(get_group("8^3.2^3.3^2"), "b", 10)
    assert b[7] == Fraction(-16, 3)


# --- characters and newforms -------------------------------------------------

def test_character_values():
    assert character_value((-3, -4), 7) == -1
    assert character_value((-3,), 13) == 1
    assert character_value((-3,), 7) == 1
    assert character_value((-4,), 5) == 1
    assert character_value((-4,), 7) == -1
    # at p = 2 the Kronecker symbol of an odd discriminant is defined
    assert character_value((-3,), 2) == -1
    assert character_value((-7,), 2) == 1
    for discs, p in (((-3,), 3), ((-4,), 2), ((-3, -4), 2), ((-3,), 1)):
        with pytest.raises(ValueError):
            character_value(discs, p)


def test_kronecker_symbol_basics():
    assert kronecker_symbol(-3, 2) == -1
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(12, 7) == kronecker_symbol(-3, 7) * kronecker_symbol(-4, 7)


def test_newform_an_independent_of_request_order(monkeypatch):
    """Ascending and descending requests from cold caches give one set of
    values and build lists of one length per piece; they agree with the
    published prime tables and, for L48 = q R(q^2), with the full product."""
    import noncong.catalog as catalog
    runs, held = [], []
    for order in (range(1, 2501), range(2500, 0, -1)):
        monkeypatch.setattr(catalog, "_PIECES", {})
        runs.append({(tag, n): newform_an(tag, n).c for n in order for tag in ("L48", "L432")})
        held.append({key: len(c) for key, c in catalog._PIECES.items()})
    assert runs[0] == runs[1] and held[0] == held[1]
    assert held[0] == {("L48", 1): 2048, **{("L432", r): 256 for r in (1, 5, 7, 11)}}
    want = {}
    with open(GOLDEN / "newform_L48_primes.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            want["L48", int(rec["p"])] = (int(rec["ap"]), 0, 0, 0)
    slot = {"1": 0, "sqrt2": 1, "sqrt-3": 2, "sqrt-6": 3}
    with open(GOLDEN / "newform_L432_primes.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            c = [0, 0, 0, 0]
            c[slot[rec["divisor"]]] = int(rec["value"])
            want["L432", int(rec["p"])] = tuple(c)
    assert {key: runs[0][key] for key in want} == want
    full = catalog.ETA_L48.expansion(300)
    assert all(runs[0]["L48", n] == (full.coefficient(n), 0, 0, 0) for n in range(1, 300))


def test_l48_expansion_and_prime_table():
    for n, c in published_tables.L48_EXPANSION.items():
        assert newform_an("L48", n).rational_value() == c
    table = newform_coefficients("L48", 67)
    want = {5: 0, 7: -2, 11: 0, 13: -22, 17: 0, 19: -26, 23: 0, 29: 0, 31: 46,
            37: 26, 41: 0, 43: 22, 47: 0, 53: 0, 59: 0, 61: 74, 67: -122}
    for p, v in want.items():
        assert table[p].rational_value() == v, p


def test_l432_combination_through_q29():
    units = {"1": (1, 0, 0, 0), "sqrt2": (0, 1, 0, 0),
             "sqrt-3": (0, 0, 1, 0), "sqrt-6": (0, 0, 0, 1)}
    printed = {n: (d, v) for n, d, v in published_tables.L432_EXPANSION_29}
    for n in range(1, 30):
        a = newform_an("L432", n)
        if n in printed:
            d, v = printed[n]
            comps = tuple(Fraction(v) * u for u in units[d])
            assert a.c == comps, n
        else:
            assert a == 0, n


def test_l243_l486_stored_tables_reproduce_expansions():
    """Composite a_n of the stored forms, from the Hecke recursion on the
    stored A_p, equal the published expansions; the n they omit are 0."""
    for tag, published in (("L243", published_tables.L243_EXPANSION),
                           ("L486", published_tables.L486_EXPANSION)):
        want = {n: (c0, c1, 0, 0) for n, c0, c1 in published}
        assert {n: newform_an(tag, n).c for n in range(1, max(want) + 1)} == \
            {n: want.get(n, (0, 0, 0, 0)) for n in range(1, max(want) + 1)}


def test_l243_outside_stored_range_errors():
    stored = [2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for n in (41, 2 * 41, 41 * 41):
        with pytest.raises(KeyError) as err:
            newform_an("L243", n)
        assert err.value.args == (f"coefficient unknown: L243 stores primes {stored} only",)


def test_primes_whose_square_divides_the_level_have_zero_coefficient():
    # the rule the stored forms use at p = 3, checked on the computed forms
    for tag, p in (("L48", 2), ("L432", 2), ("L432", 3)):
        for e in (1, 2, 3):
            assert newform_an(tag, p ** e) == 0 and newform_an(tag, 5 * p ** e) == 0
    for tag in ("L243", "L486"):
        assert newform_an(tag, 3) == 0 and newform_an(tag, 3 * 41) == 0


def test_newform_sources():
    assert {tag: rec.source for tag, rec in NEWFORMS.items()} == {
        "L48": "etaQuotient", "L432": "etaEisenstein",
        "L243": "storedTable", "L486": "storedTable"}


def test_newform_single_values():
    assert newform_an("L48", 13).rational_value() == -22
    assert newform_an("L432", 5).c == (0, 6, 0, 0)
    assert newform_an("L486", 7).rational_value() == -7
    assert newform_an("L243", 5).c[1] == 6  # 6i


def test_hecke_identity_examples():
    a21 = newform_an("L48", 21).rational_value()
    a7 = newform_an("L48", 7).rational_value()
    a3 = newform_an("L48", 3).rational_value()
    assert a21 - a7 * a3 == 0
    a5 = newform_an("L48", 5).rational_value()
    assert a5 - a5 * 1 == 0


def test_hecke_check_all_tags_with_verified_characters():
    assert hecke_check("L48", 31, 15).ok
    assert hecke_check("L432", 31, 10).ok


@pytest.mark.parametrize("tag", ["L243", "L486"])
def test_hecke_check_refuses_stored_tables(tag):
    # a stored table's a_n come from the recursion under test, so the check
    # would pass whatever the table held
    assert NEWFORMS[tag].source == "storedTable"
    with pytest.raises(ValueError, match="stores A_p only"):
        hecke_check(tag, 7, 7)


def test_hecke_check_printed_l48_character_fails_as_analyzed():
    # the published header (-3/p)(-4/p) is an even character; the relation
    # breaks exactly where it disagrees with the verified (-3/p)
    rep = hecke_check("L48", 31, 15, character=(-3, -4))
    assert not rep.ok
    assert rep.violations == [(7, 7), (11, 11)]


def test_export_text_mentions_every_group_and_newform():
    text = export_text()
    for name in GROUPS:
        assert f"[group {name}]" in text
    for tag in NEWFORMS:
        assert f"[newform {tag}]" in text
