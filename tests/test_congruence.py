"""Residues mod p^2, roots, ratio machinery, three-term checks, detection."""

import collections
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from noncong import catalog, cli, congruence, residues
from noncong.catalog import (GROUPS, character_value, coefficient_sequence,
                             get_group, newform_an, primes_upto)
from noncong.residues import coefficient_residues, lattice_indices
from noncong.congruence import (ROW_BLOCK, InsufficientDataError,
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
    return congruence._ratios(r, (r,), p)[0][0]


def test_ratio_constancy_on_catalog_group():
    g = get_group("24.6.1^6")
    a = coefficient_sequence(g, "a", 500)
    assert _ratio(a, 7, 500) == 47
    assert _ratio(a, 5, 500) == 0
    assert _ratio(a, 19, 500) == 335


def test_ratio_constancy_empty_test_set_is_error():
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        congruence._ratios(np.ones(6), (np.ones(6),), 7)


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
        (c1,), _ = congruence._ratios(rb, (ra,), p)
        (c2,), _ = congruence._ratios(ra, (rb,), p)
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


def test_indeterminate_on_rows_with_no_constant_ratio():
    # a_n = b_n = n + 1 mod 25: a_10/a_2 = 11/3 differs from a_5/a_1 = 3, and
    # so do the cross ratios, so neither case holds
    row = np.arange(2, 52) % 25
    rep = detect_basis(get_group("24.6.1^6"), 5, 50, rows=(row, row))
    assert (rep.case_kind, rep.constants, rep.matches) == ("indeterminate", {}, {})


def test_report_row_lists_the_case_constants_in_print_order():
    g = get_group("18.3^4.2^3")
    case2, case1 = detect_bases(g, (5, 7), 500)
    assert (case2.constants, case2.row) == ({"ab": 3, "ba": 19}, ("case2", 3, 19))
    assert (case1.constants, case1.row) == ({"a": 35, "b": 21}, ("case1", 35, 21))
    row = np.arange(2, 52) % 25
    rep = detect_basis(get_group("24.6.1^6"), 5, 50, rows=(row, row))
    assert rep.row == ("indeterminate", None, None)


def test_vacuous_cross_ratios_stand_when_case1_fails():
    # gamma_8^3.2^3.3^2 at p = 5: a lives on n = 1 (mod 3), b on n = 1 (mod 6).
    # With a_80, off a's lattice, set to 1, case 1 fails at n = 16 (a_16 a
    # unit), while the cross ratios test np = 5n for n = 1 (mod 6), every one
    # off a's lattice: they hold with constants 0, not live, and still give
    # case 2
    g = get_group("8^3.2^3.3^2")
    a, b = (rows[0].copy() for rows in coefficient_residues(g, 100, (25,)))
    assert lattice_indices(g, "a", np.array([80]))[0] < 0 and a[15] % 5
    a[79] = 1
    rep = detect_basis(g, 5, 100, rows=(a, b))
    assert (rep.case_kind, rep.constants) == ("case2", {"ab": 0, "ba": 0})
    assert rep.notes == ["cross constants vanish mod p; alpha not solvable"]


def test_verdict_census_at_pn_bound_1000():
    # every (group, p, pn-bound) that aswd accepts at p <= 97, pn-bound <= 1000:
    # a pn-bound between multiples kp of p tests what kp tests
    primes = [q for q in primes_upto(97) if q >= 5]
    census = collections.Counter()
    for g in GROUPS.values():
        a, b = coefficient_residues(g, 1000, tuple(p * p for p in primes))
        for i, p in enumerate(primes):
            for pn in range(p, 1001, p):
                try:
                    rep = detect_basis(g, p, pn, rows=(a[i, :pn], b[i, :pn]))
                    census[rep.case_kind] += 1
                except InsufficientDataError:
                    census["refused"] += 1
    assert census == {"case1": 4909, "case2": 3644, "refused": 69}


def _cascade_row(group, p, a, b, bound):
    """(case_kind, c1, c2) of the cascade of four ratio tests, as scalar
    loops over residue lists mod p^2 (index n - 1 holding n), or "refused":
    the self tests a_{np}/a_n and b_{np}/b_n, then, unless case 1 is live,
    a_{np}/b_n and b_{np}/a_n; a vacuous case 1 yields to a live case 2."""
    m = p * p

    def constancy(num, den):
        ns = [n for n in range(1, bound // p + 1) if n % p and den[n - 1] % p]
        if not ns:
            raise InsufficientDataError
        c = num[ns[0] * p - 1] * pow(den[ns[0] - 1], -1, m) % m
        if any((num[n * p - 1] - c * den[n - 1]) % m for n in ns):
            return None, None
        return c, [n * p for n in ns]

    def live(which, tested):
        return (lattice_indices(group, which, np.array(tested)) >= 0).any()

    try:
        (ca, a_tested), (cb, b_tested) = constancy(a, a), constancy(b, b)
    except InsufficientDataError:
        return "refused"
    case1 = ca is not None and cb is not None
    if case1 and (live("a", a_tested) or live("b", b_tested)):
        return "case1", ca, cb
    c1, x_tested = constancy(a, b)
    c2 = constancy(b, a)[0] if c1 is not None else None
    case2 = c1 is not None and c2 is not None
    if case2 and live("a", x_tested):
        return "case2", c1, c2
    if case1:
        return "case1", ca, cb
    return ("case2", c1, c2) if case2 else ("indeterminate", None, None)


def test_rows_equal_the_scalar_cascade():
    # the census domain, row by row: detect_basis's two ratio calls give what
    # four separate tests and a conditional cross-ratio pass give
    primes = [q for q in primes_upto(97) if q >= 5]
    for g in GROUPS.values():
        a, b = coefficient_residues(g, 1000, tuple(p * p for p in primes))
        for i, p in enumerate(primes):
            ra, rb = a[i].tolist(), b[i].tolist()
            for pn in range(p, 1001, p):
                want = _cascade_row(g, p, ra, rb, pn)
                try:
                    got = detect_basis(g, p, pn, rows=(a[i, :pn], b[i, :pn])).row
                except InsufficientDataError:
                    got = "refused"
                assert got == want, (g.name, p, pn)


def test_detect_basis_keeps_nothing_per_bound():
    # a library process calling detect_basis at many bounds must not grow:
    # liveness is arithmetic on the tested indices, not a table per bound
    import tracemalloc
    g = get_group("24.6.1^6")
    a, b = (rows[0] for rows in coefficient_residues(g, 1000, (49,)))
    detect_basis(g, 7, 1000, rows=(a, b))       # the newform coefficients once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for bound in range(200, 1000, 2):
            detect_basis(g, 7, bound, rows=(a[:bound], b[:bound]))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20


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
    """Oracle for residues.coefficient_residues, reduced from the exact
    sequences."""
    return tuple(np.array([[x.numerator * pow(x.denominator, -1, m) % m
                            for x in coefficient_sequence(group, w, bound).values()]
                           for m in moduli]) for w in "ab")


def _exact_constancy(num, den, p, bound):
    """One constant of congruence._ratios as a loop over exact coefficients."""
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
        lattice = {w: lattice_indices(g, w, np.arange(1, 501)) for w in "ab"}
        for i, p in enumerate(primes):
            for den in "ab":
                rows = (batch["a"][i], batch["b"][i])
                consts, tested = congruence._ratios(batch[den][i], rows, p)
                for num, const in zip("ab", consts):
                    want = _exact_constancy(exact[num], exact[den], p, 500)
                    got = (const, None if const is None else tested.tolist())
                    assert got == want, (g.name, p, num + den)
                    if const is not None:
                        # detect_basis's flag: some tested index lies on the lattice
                        live = any(lattice[num][n - 1] >= 0 for n in want[1])
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
        lattice = {w: lattice_indices(g, w, np.arange(1, 1001)) for w in "ab"}
        for i, p in enumerate(primes):
            for num, den in ("aa", "bb", "ab", "ba"):
                n = np.arange(1, 1000 // p + 1)
                n = n[(n % p != 0) & (batch[den][i][n - 1] % p != 0)]
                on = [k for k in (n * p).tolist() if lattice[num][k - 1] >= 0]
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
    calls, events, held = [], [], []
    newton, basis = residues.cube_roots_mod, detect_basis

    def block_residues(*args):
        assert all(row() is None for row in held)   # the last block is gone
        events.append(args[2])
        a, b = coefficient_residues(*args)
        held[:] = [weakref.ref(a), weakref.ref(b)]
        return a, b
    monkeypatch.setattr(residues, "cube_roots_mod",
                        lambda *args: calls.append(len(args[2])) or newton(*args))
    monkeypatch.setattr(congruence, "coefficient_residues", block_residues)
    monkeypatch.setattr(congruence, "detect_basis",
                        lambda *args: events.append(args[1]) or basis(*args))
    primes = [q for q in primes_upto(97) if q >= 5]
    detect_bases(get_group("24.6.1^6"), primes, 1000)
    # 23 moduli p^2 in blocks of ROW_BLOCK = 8: both forms come from 3
    # Newton iterations, not 6
    assert calls == [ROW_BLOCK, ROW_BLOCK, len(primes) - 2 * ROW_BLOCK]
    # the run holds one block: its primes are tested before the next is built
    blocks = [primes[r:r + ROW_BLOCK] for r in range(0, len(primes), ROW_BLOCK)]
    assert events == [x for block in blocks for x in (tuple(p * p for p in block), *block)]


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
