"""Residues mod p^2, roots, ratio machinery, three-term checks, detection."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from noncong import catalog, cli, congruence
from noncong.catalog import (GROUPS, ROW_BLOCK, character_value,
                             coefficient_residues, coefficient_sequence,
                             get_group, lattice_indices, newform_an,
                             primes_upto)
from noncong.congruence import (InsufficientDataError,
                                NotPIntegralError, aswd_three_term_check,
                                detect_basis, detect_bases, match_constant,
                                padic_valuation, reduce_mod_p2, solve_alpha_ap,
                                sqrt_mod_p2)


# --- residues -----------------------------------------------------------------

def test_reduce_examples():
    assert reduce_mod_p2(Fraction(-4, 3), 5) == 7
    assert reduce_mod_p2(0, 7) == 0
    assert reduce_mod_p2(-22, 13) == 147


def test_reduce_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        num = rng.randint(-500, 500)
        den = rng.choice([1, 3, 9, 27, 81])
        r = reduce_mod_p2(Fraction(num, den), p)
        assert (r * den - num) % (p * p) == 0


def test_reduce_rejects_non_integral():
    with pytest.raises(NotPIntegralError, match="not p-integral"):
        reduce_mod_p2(Fraction(1, 5), 5)


def test_padic_valuations():
    assert padic_valuation(Fraction(50, 3), 5) == 2
    assert padic_valuation(Fraction(-5968, 6561), 7) == 0
    assert padic_valuation(0, 5) == math.inf
    assert padic_valuation(Fraction(3, 49), 7) == -2


def test_residue_arithmetic():
    # residues are plain ints mod p^2: units invert, non-units are refused,
    # and a sixth root of unity carries its order
    assert reduce_mod_p2(Fraction(1, 7), 5) * 7 % 25 == 1
    assert (reduce_mod_p2(7, 5) + reduce_mod_p2(18, 5)) % 25 == 0
    with pytest.raises(ZeroDivisionError):
        solve_alpha_ap(1, 10, 5)
    with pytest.raises(ValueError, match="units only"):
        sqrt_mod_p2(10, 5)
    assert congruence._unit_order(18, 49) == 3


# --- roots ----------------------------------------------------------------------

def test_sqrt_examples():
    assert set(sqrt_mod_p2(-3 % 49, 7)) == {37, 12}
    assert (37 * 37 - (-3)) % 49 == 0
    assert sqrt_mod_p2(2, 5) is None
    assert set(sqrt_mod_p2(1, 11)) == {1, 120}


def test_root_round_trips_random():
    rng = random.Random(3)
    squares = 0
    for p in [q for q in primes_upto(50) if q >= 5]:
        for _ in range(30):
            a = rng.randrange(1, p)
            r = sqrt_mod_p2(a, p)
            if r is not None:
                for x in r:
                    assert (x * x - a) % (p * p) == 0
                squares += 1
    assert squares >= 100


def test_sixth_roots():
    # match_constant accepts c = u * target exactly for the sixth roots of
    # unity u mod p^2, and reports each with its multiplicative order
    for p in (5, 7, 13, 23):
        m = p * p
        found = {}
        for u in range(1, m):
            hit = match_constant(u * 2 % m, 2, p, "L48")
            assert (hit is not None) == (pow(u, 6, m) == 1), (p, u)
            if hit is not None:
                assert (hit.unit, hit.modulus_exponent) == (u, 2)
                assert hit.order == next(k for k in range(1, 7) if pow(u, k, m) == 1)
                found[u] = hit.order
        assert {1, m - 1} <= set(found)
        assert len(found) == (6 if p % 3 == 1 else 2)
        if p == 7:
            omegas = {u for u, k in found.items() if k == 3}
            assert omegas == {18, 30}
            assert all((w * w + w + 1) % 49 == 0 for w in omegas)
        if p == 13:
            assert found[22] == found[146] == 3


# --- ratio machinery ---------------------------------------------------------------

def _reduced(seq, p, bound=500):
    """The residue row of a_1..a_bound mod p^2."""
    return np.array([reduce_mod_p2(seq[n], p) for n in range(1, bound + 1)])


def _ratio(seq, p, bound):
    r = _reduced(seq, p, bound)
    return congruence._constancy(r, r, p)[0]


def test_ratio_constancy_on_catalog_group():
    g = get_group("24.6.1^6")
    a = coefficient_sequence(g, "a", 500)
    assert _ratio(a, 7, 500) == 47
    assert _ratio(a, 5, 500) == 0
    assert _ratio(a, 19, 500) == 335


def test_ratio_constancy_empty_test_set_is_error():
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        congruence._constancy(np.ones(6), np.ones(6), 7)


def test_ratio_constancy_detects_nonconstant():
    seq = {n: Fraction(n) for n in range(1, 60)}
    seq[14] = Fraction(999)
    assert _ratio(seq, 7, 56) is None


def test_cross_ratio_on_catalog_group():
    g = get_group("8^3.6.3.1^3")
    a = coefficient_sequence(g, "a", 500)
    b = coefficient_sequence(g, "b", 500)
    assert _ratio(a, 5, 500) is None          # case 1 fails at p = 2 mod 3
    for p, want in ((5, (3, 1)), (11, (84, 32))):
        ra, rb = _reduced(a, p), _reduced(b, p)
        c1 = congruence._constancy(ra, rb, p)[0]
        c2 = congruence._constancy(rb, ra, p)[0]
        assert (c1, c2) == want


def test_solve_alpha_ap():
    alpha_sq, ap_sq, pattern = solve_alpha_ap(3, 1, 5)
    assert ap_sq == 3
    assert ap_sq == (-2 * 36) % 25      # -2 * 6^2
    assert pattern[6] == 4
    same = solve_alpha_ap(7, 7, 5)
    assert same[0] == 1
    with pytest.raises(ZeroDivisionError):
        solve_alpha_ap(5, 10, 5)


# --- three-term checks ----------------------------------------------------------------

def test_three_term_exact_for_newform_itself():
    coeffs = {n: newform_an("L48", n).rational_value() for n in range(1, 171)}
    rep = aswd_three_term_check(coeffs, newform_an("L48", 7).rational_value(),
                                character_value((-3,), 7), 7, 24)
    assert rep.ok


def test_three_term_for_noncongruence_form():
    g = get_group("24.6.1^6")
    a = coefficient_sequence(g, "a", 500)
    chi7 = character_value((-3,), 7)
    rep = aswd_three_term_check(a, -2, chi7, 7, 70)
    assert rep.ok
    bad = aswd_three_term_check(a, 1, chi7, 7, 10)
    assert not bad.ok and bad.failures[0] == 1


def test_three_term_with_residue_ap():
    g = get_group("24.6.1^6")
    a = _reduced(coefficient_sequence(g, "a", 500), 7)
    rep = congruence._three_term_mod_p2(a, reduce_mod_p2(-2, 7), 7, 20)
    assert rep.ok
    assert any(kind.startswith("mod") for _, _, kind, _ in rep.rows)


def test_three_term_insufficient_precision():
    with pytest.raises(InsufficientDataError):
        aswd_three_term_check({1: Fraction(1)}, -2, 1, 7, 3)


# --- detection ---------------------------------------------------------------------------

def test_detect_basis_deterministic():
    g = get_group("18.6.3^3.1^3")
    r1 = detect_basis(g, 7)
    r2 = detect_basis(g, 7)
    assert r1.to_json() == r2.to_json()


def test_detect_basis_case_assignments():
    g = get_group("18.6.3^3.1^3")
    assert detect_basis(g, 7).case_kind == "case1"
    assert detect_basis(g, 5).case_kind == "case2"
    assert detect_basis(g, 7).constants == {"a": 36, "b": 2}
    rep5 = detect_basis(g, 5)
    assert rep5.constants == {"ab": 3, "ba": 13}
    assert rep5.alpha_power_pattern[3] == (-9) % 25


def test_vacuous_cross_ratios_keep_case1():
    # every tested numerator, a_{5n}, b_{5n} and the cross ones, is exactly
    # zero (off the exponent lattice), so no verdict is live and case 1 stays
    rep = detect_basis(get_group("8^3.2^3.3^2"), 5)
    assert rep.case_kind == "case1" and rep.constants == {"a": 0, "b": 0}


def test_detect_basis_b_variant():
    g = get_group("24.3.2^3.1^3B")
    rep = detect_basis(g, 5)
    assert rep.case_kind == "case2"
    assert rep.constants == {"ab": 14, "ba": 2}
    rep7 = detect_basis(g, 7)
    assert rep7.case_kind == "case1"
    assert rep7.constants == {"a": 32, "b": 20}


def test_detect_basis_json_fields():
    rep = detect_basis(get_group("24.6.1^6"), 7)
    import json
    data = json.loads(rep.to_json())
    assert data["caseKind"] == "case1"
    assert data["constants"] == {"a": 47, "b": 47}
    assert data["newformMatch"]["a"]["tag"] == "L48"


def test_match_weakened_modulus_at_19():
    # constants = A_19 * omega with A_19 = -19 divisible by p: certified mod p
    rep = detect_basis(get_group("18.6.3^3.1^3"), 19)
    m = rep.matches["a"]
    assert m is not None and m.modulus_exponent == 1
    assert m.order == 3


def test_match_derived_when_catalog_unknown():
    rep = detect_basis(get_group("9.6^3.3.2^3"), 43)
    assert rep.case_kind == "case1"
    assert rep.matches["a"] is None
    assert any("derived" in n for n in rep.notes)


def test_detect_basis_attaches_three_term_rows():
    import json
    g = get_group("24.6.1^6")
    rep = detect_basis(g, 7, bound=500, three_term_n_bound=40)
    assert set(rep.three_term) == {"a", "b"}
    assert rep.three_term["a"].ok and rep.three_term["b"].ok
    data = json.loads(rep.to_json())
    assert data["threeTerm"]["a"][0][0] == 1


def test_residue_three_term_rows_fail_on_wrong_constant():
    g = get_group("24.6.1^6")
    rep = detect_basis(g, 7, bound=500, three_term_n_bound=40)
    for w, rows in zip("ab", coefficient_residues(g, 500, (49,))):
        values = rows[0]
        c = rep.constants[w]
        right = congruence._three_term_mod_p2(values, c, 7, 40)
        assert right.rows == rep.three_term[w].rows and right.ok
        wrong = congruence._three_term_mod_p2(values, (c + 1) % 49, 7, 40)
        # a_{7n} = c a_n on every row, so c + 1 is off by exactly a_n
        assert wrong.failures == [n for n in range(1, 41) if values[n - 1] % 49]
        assert wrong.failures and not wrong.ok


def test_residue_three_term_rows_are_mod_p2():
    primes = tuple(q for q in primes_upto(47) if q >= 5)
    rows = [row for g in GROUPS.values()
            for rep in detect_bases(g, primes, 500, three_term_n_bound=50)
            for report in rep.three_term.values() for row in report.rows]
    assert {kind for _, _, kind, _ in rows} == {"mod p^2"}
    # rows with p | n need p^4 or p^6 and are still certified mod p^2 only
    assert {need for _, need, _, _ in rows} == {2, 4, 6}


# --- the residue path against the exact sequences ---------------------------------------

def _exact_residues(group, bound, moduli):
    """Oracle for catalog.coefficient_residues, reduced from the exact
    sequences."""
    return tuple(np.array([[x.numerator * pow(x.denominator, -1, m) % m
                            for x in coefficient_sequence(group, w, bound).values()]
                           for m in moduli]) for w in "ab")


def _exact_constancy(num, den, p, bound):
    """congruence._constancy as a loop over exact coefficients."""
    tested = [n * p for n in range(1, bound // p + 1) if n % p and den[n].numerator % p]
    ratios = {reduce_mod_p2(num[k] / den[k // p], p) for k in tested}
    return (ratios.pop(), tested) if len(ratios) == 1 else (None, None)


def test_live_flag_equals_exact_flag():
    checks = 0
    primes = tuple(q for q in primes_upto(97) if q >= 5)
    moduli = tuple(q * q for q in primes)
    for g in GROUPS.values():
        batch = dict(zip("ab", coefficient_residues(g, 500, moduli)))
        exact = {w: coefficient_sequence(g, w, 500) for w in "ab"}
        lattice = {w: lattice_indices(g, w, 500) for w in "ab"}
        for i, p in enumerate(primes):
            for num, den in ("aa", "bb", "ab", "ba"):
                const, tested = congruence._constancy(batch[num][i], batch[den][i], p)
                want = _exact_constancy(exact[num], exact[den], p, 500)
                assert (const, tested if tested is None else tested.tolist()) == want, \
                    (g.name, p, num + den)
                if tested is not None:
                    # detect_basis's flag: some tested index lies on the lattice
                    live = any(lattice[num][n - 1] is not None for n in want[1])
                    assert live == any(exact[num][n] != 0 for n in want[1]), \
                        (g.name, p, num + den)
                checks += 1
    assert checks == 9 * 23 * 4


def test_first_lattice_numerator_is_nonzero():
    # the lattice flag equals the exact one wherever the first tested index
    # on the lattice has a nonzero coefficient; a residue mod p^2 or mod the
    # prime 65521 proves it, with no exact series
    primes = tuple(q for q in primes_upto(97) if q >= 5)
    moduli = tuple(q * q for q in primes) + (65521,)
    witnessed = 0
    for g in GROUPS.values():
        batch = dict(zip("ab", coefficient_residues(g, 1000, moduli)))
        lattice = {w: lattice_indices(g, w, 1000) for w in "ab"}
        for i, p in enumerate(primes):
            for num, den in ("aa", "bb", "ab", "ba"):
                n = np.arange(1, 1000 // p + 1)
                n = n[(n % p != 0) & (batch[den][i][n - 1] % p != 0)]
                on = [k for k in (n * p).tolist() if lattice[num][k - 1] is not None]
                if on:
                    assert batch[num][[i, -1], on[0] - 1].any(), (g.name, p, num + den)
                    witnessed += 1
    assert 0 < witnessed < 9 * 23 * 4


def test_aswd_builds_no_exact_series(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"exact series built: {args}")
    monkeypatch.setattr(catalog, "basis_form", refuse)
    for name in GROUPS:
        assert cli.main(["aswd", name, "--pmax", "97", "--pn-bound", "1000"]) == 0


def test_one_newton_per_row_block(monkeypatch):
    calls = []
    newton = catalog.cube_roots_mod
    monkeypatch.setattr(catalog, "cube_roots_mod",
                        lambda *args: calls.append(len(args[2])) or newton(*args))
    coefficient_residues.cache_clear()
    primes = [q for q in primes_upto(97) if q >= 5]
    detect_bases(get_group("24.6.1^6"), primes, 1000)
    # 23 moduli p^2 in blocks of ROW_BLOCK = 8: both forms come from 3
    # Newton iterations, not 6
    assert calls == [ROW_BLOCK, ROW_BLOCK, len(primes) - 2 * ROW_BLOCK]


@pytest.mark.parametrize("fmt", ["human", "csv", "json"])
def test_aswd_output_equals_exact_reports(capsys, monkeypatch, fmt):
    def outputs():
        out = []
        for name in GROUPS:
            assert cli.main(["--format", fmt, "aswd", name, "--pmax", "47",
                             "--three-term", "20"]) == 0
            out.append(capsys.readouterr().out)
        return out

    residue = outputs()
    monkeypatch.setattr(congruence, "coefficient_residues", _exact_residues)
    assert residue == outputs()
