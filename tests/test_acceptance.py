"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criterion 5c is checked twice: with the verified level-48 character, where
the Hecke relation holds, and with the published one, where the test asserts
that the exact expansion refutes it at the predicted (p, n); see
notes/decisions.md.  Every criterion passes exactly at its stated tolerance
(all comparisons are exact integer/rational equalities; the only tolerances
are runtime targets).
"""

import csv
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import published_tables
from noncong.catalog import (ETA_L48, GROUPS, MAIN_GROUPS, NEWFORMS,
                             basis_q_expansions, construct_basis,
                             character_value, derived_cusp_counts,
                             dim_cusp_forms, hecke_check, kronecker_symbol,
                             newform_an, newform_coefficients,
                             noncongruence_test, primes_upto)
from noncong.congruence import detect_basis, sqrt_mod_p2
from noncong.series import PuiseuxSeries, eta_expansion
from noncong.surfaces import involution_identity_check
from noncong.traces import (PrimeField, TABLE8_PRIMES, count_points_short,
                            fiber_trace_table, surface_families, trace_rows)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {criterion} failed {detail}"


def test_criterion1_qexpansion_fidelity_order_501():
    t0 = time.perf_counter()
    for name in GROUPS:
        g = GROUPS[name]
        h1, h2 = basis_q_expansions(g, 501)
        printed1, printed2 = published_tables.BASIS_EXPANSIONS[name]
        for series, unit, printed in ((h1, g.h1_unit, printed1),
                                      (h2, g.h2_unit, printed2)):
            assert series.coefficient(501 * unit - 1) is not None  # depth
            for n, c in printed:
                assert series.coefficient(n * unit) == c, (name, n)
    h1, _ = basis_q_expansions(GROUPS["gamma_24.6.1^6"], 501)
    assert h1.coefficient(5) == Fraction(-850, 243)
    elapsed = time.perf_counter() - t0
    report("1 (q-expansion fidelity, 9 pairs, order 501)",
           elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion2_construction_equivalence():
    for name in MAIN_GROUPS:
        construct_basis(GROUPS[name], order=50)  # raises on any mismatch
    report("2 (cube-root construction = eta quotients, order 50, 8 groups)", True)


def test_criterion3_trace_table():
    golden = {}
    with open(GOLDEN / "traces.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            golden[(rec["group"], rec["parameterization"], int(rec["p"]))] = \
                (int(rec["tr_p"]), int(rec["tr_p2"]))
    groups = [GROUPS[n] for n in MAIN_GROUPS]

    fiber_trace_table.cache_clear()
    t0 = time.perf_counter()
    rows = trace_rows(groups, TABLE8_PRIMES)
    single = time.perf_counter() - t0

    assert len(rows) == 96
    for name, label, p, tr, tr2 in rows:
        assert golden[(name, label, p)] == (tr, tr2), (name, label, p)
    report("3 (trace table, 12 rows x 8 primes, exact)",
           single < 60.0, f"single {single:.1f}s < 60s")


RATIO_FILES = {
    "gamma_24.6.1^6": "ratios_gamma_24.6.1-6.csv",
    "gamma_8^3.2^3.3^2": "ratios_gamma_8-3.2-3.3-2.csv",
    "gamma_8^3.6.3.1^3": "ratios_gamma_8-3.6.3.1-3.csv",
    "gamma_24.3.2^3.1^3": "ratios_gamma_24.3.2-3.1-3.csv",
    "gamma_24.3.2^3.1^3B": "ratios_gamma_24.3.2-3.1-3B.csv",
    "gamma_18.6.3^3.1^3": "ratios_gamma_18.6.3-3.1-3.csv",
    "gamma_9.6^3.3.2^3": "ratios_gamma_9.6-3.3.2-3.csv",
    "gamma_9.6^4.1^3": "ratios_gamma_9.6-4.1-3.csv",
    "gamma_18.3^4.2^3": "ratios_gamma_18.3-4.2-3.csv",
}

_REPORT_CACHE = {}


def _report_for(name, p):
    if (name, p) not in _REPORT_CACHE:
        _REPORT_CACHE[(name, p)] = detect_basis(GROUPS[name], p, bound=500)
    return _REPORT_CACHE[(name, p)]


def test_criterion4_congruence_tables():
    t0 = time.perf_counter()
    checked = 0
    for name, fname in RATIO_FILES.items():
        with open(GOLDEN / fname, newline="") as fh:
            for rec in csv.DictReader(fh):
                p, kind = int(rec["p"]), rec["case"]
                want = (int(rec["c1"]), int(rec["c2"]))
                rep = _report_for(name, p)
                got = (rep.constants.get("a"), rep.constants.get("b")) \
                    if rep.case_kind == "case1" else \
                    (rep.constants.get("ab"), rep.constants.get("ba"))
                if want == (0, 0) and got == (0, 0):
                    checked += 1
                    continue
                assert rep.case_kind == kind and got == want, (name, p)
                checked += 1
    elapsed = time.perf_counter() - t0
    report("4 (congruence ratio tables, pn <= 500, exact mod p^2)",
           elapsed < 10.0, f"{checked} printed rows, {elapsed:.1f}s < 10s")


def test_criterion5a_l48_prime_table():
    table = newform_coefficients("L48", 67)
    with open(GOLDEN / "newform_L48_primes.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            assert table[int(rec["p"])].rational_value() == int(rec["ap"])
    report("5a (level-48 newform matches its prime table)", True)


def test_criterion5b_l432_through_q29():
    printed = {n: (d, v) for n, d, v in published_tables.L432_EXPANSION_29}
    units = {"1": 0, "sqrt2": 1, "sqrt-3": 2, "sqrt-6": 3}
    for n in range(1, 30):
        a = newform_an("L432", n)
        if n in printed:
            d, v = printed[n]
            comps = [0, 0, 0, 0]
            comps[units[d]] = v
            assert list(a.c) == comps, n
        else:
            assert a == 0, n
    report("5b (level-432 combination through q^29)", True)


def test_criterion5c_hecke_verified_character():
    rep = hecke_check("L48", 31, 15)
    report("5c (Hecke relation for L48 with its verified character (-3/p))",
           rep.ok, f"{rep.checked} identities")


def test_criterion5c_hecke_literal_printed_character():
    """The criterion as stated: chi = (-3/p)(-4/p), the published header.

    The eta quotient has weight k = 3 and s = prod delta^r_delta = 2^12 3^3,
    so its nebentypus is ((-1)^k s / d) = (-3/d).  The published product is
    even, and no weight-3 form admits an even character.  As the relation
    holds with (-3/p), the published one fails exactly where
    (chi_pub(p) - chi_ver(p)) p^2 a_{n/p} != 0: at p | n with (-4/p) = -1
    and a_{n/p} != 0.  This test asserts that the exact expansion refutes
    the published character there and nowhere else; see notes/decisions.md.
    """
    rec = NEWFORMS["L48"]
    printed, verified = rec.printed_character, rec.character
    assert printed == (-3, -4)

    # the nebentypus of the eta quotient, and the parity a weight-3 form needs
    k = ETA_L48.weight
    s = Fraction(1)
    for delta, r in ETA_L48.factors:
        s *= Fraction(delta) ** r
    assert k == 3 and s == 2 ** 12 * 3 ** 3
    good = [p for p in primes_upto(31) if rec.level % p]
    assert all(character_value([(-1) ** int(k) * int(s)], p)
               == character_value(verified, p) for p in good)
    # the parity chi(-1) is the sign of the product of the discriminants
    assert kronecker_symbol(math.prod(verified), -1) == -1
    assert kronecker_symbol(math.prod(printed), -1) == 1

    assert hecke_check("L48", 31, 15).ok
    predicted = [(p, n) for p in good for n in range(1, 16)
                 if n % p == 0
                 and character_value(printed, p) != character_value(verified, p)
                 and newform_an("L48", n // p) != 0]
    rep = hecke_check("L48", 31, 15, character=printed)
    report("5c-literal (Hecke for L48 with the published character (-3/p)(-4/p))",
           bool(predicted) and rep.violations == predicted,
           f"published character refuted at {rep.violations}, as predicted "
           f"{predicted}; it is even and cannot be a weight-3 nebentypus")


def test_criterion6a_case1_constants_match_newforms():
    checked = 0
    for name, fname in RATIO_FILES.items():
        tag = GROUPS[name].newform
        with open(GOLDEN / fname, newline="") as fh:
            for rec in csv.DictReader(fh):
                p = int(rec["p"])
                try:
                    newform_an(tag, p)
                except KeyError:
                    continue
                rep = _report_for(name, p)
                if rep.case_kind != "case1":
                    continue
                for which in ("a", "b"):
                    m = rep.matches[which]
                    assert m is not None, (name, p, which)
                    mod = p * p if m.modulus_exponent == 2 else p
                    assert pow(m.unit, 6, mod) == 1
                    checked += 1
    report("6a (case-1 constants = u*A_p, u^6 = 1)", checked > 0,
           f"{checked} matches")


def test_criterion6b_case2_products_match_ap_squared():
    checked = 0
    for name, fname in RATIO_FILES.items():
        tag = GROUPS[name].newform
        with open(GOLDEN / fname, newline="") as fh:
            for rec in csv.DictReader(fh):
                p = int(rec["p"])
                try:
                    newform_an(tag, p)
                except KeyError:
                    continue
                rep = _report_for(name, p)
                if rep.case_kind != "case2":
                    continue
                m = rep.matches.get("ap_squared")
                assert m is not None, (name, p)
                checked += 1
    report("6b (case-2 products = u*A_p^2)", checked > 0, f"{checked} matches")


def test_criterion6c_trace_fingerprints_of_isogenous_pairs():
    pairs = [("gamma_24.6.1^6", 0, "gamma_8^3.2^3.3^2", 0, False),
             ("gamma_8^3.6.3.1^3", 2, "gamma_24.3.2^3.1^3", 0, True),
             ("gamma_18.6.3^3.1^3", 1, "gamma_9.6^3.3.2^3", 0, True),
             ("gamma_9.6^4.1^3", 1, "gamma_18.3^4.2^3", 0, True)]
    from noncong.traces import trace_pair
    for na, ia, nb, ib, full in pairs:
        fa = surface_families(GROUPS[na])[ia]
        fb = surface_families(GROUPS[nb])[ib]
        for p in TABLE8_PRIMES:
            (ta, ta2), (tb, tb2) = trace_pair(fa, p), trace_pair(fb, p)
            assert ta2 == tb2, (na, nb, p)
            if full:
                assert ta == tb, (na, nb, p)
    report("6c (trace fingerprints equal across isogenous pairs)", True)


def test_criterion6d_trace_vanishes_at_2_mod_3():
    from noncong.traces import frobenius_trace
    for name in MAIN_GROUPS:
        for fam in surface_families(GROUPS[name]):
            for p in TABLE8_PRIMES:
                if p % 3 == 2:
                    assert frobenius_trace(fam, p) == 0, (fam.label, p)
    report("6d (Tr_p = 0 at all tabulated p = 2 mod 3)", True)


def test_criterion7_structural_verdicts():
    for name in MAIN_GROUPS:
        g = GROUPS[name]
        assert noncongruence_test(g.cusp_widths) == "noncongruence"
        u, ui = derived_cusp_counts(g)
        assert dim_cusp_forms(3, 0, u, ui) == 2
        assert involution_identity_check(g)
    report("7 (noncongruence, dim 2, involution identities, 8 groups)", True)


def test_criterion8_oracle_suites():
    # pentagonal vs naive eta product, m <= 8, N <= 60
    for m in range(1, 9):
        order = 60
        coeffs = [Fraction(0)] * order
        coeffs[0] = Fraction(1)
        for n in range(1, order // m + 1):
            nxt = list(coeffs)
            for i in range(order - m * n):
                if coeffs[i]:
                    nxt[i + m * n] -= coeffs[i]
            coeffs = nxt
        fast = eta_expansion(m, order)
        assert all(fast.coefficient(n) == coeffs[n] for n in range(order))

    # character-sum counts vs brute force, p <= 31, 100 random curves each
    rng = random.Random(8128)
    for p in [q for q in primes_upto(31) if q >= 5]:
        f = PrimeField(p)
        done = 0
        while done < 100:
            A, B = rng.randrange(p), rng.randrange(p)
            if (4 * A ** 3 + 27 * B * B) % p == 0:
                continue
            brute = 1
            for x in range(p):
                v = (x ** 3 + A * x + B) % p
                brute += 1 if v == 0 else (2 if pow(v, (p - 1) // 2, p) == 1 else 0)
            assert count_points_short(f, A, B) == brute
            done += 1

    # sqrt round trips mod p^2, 200 random inputs, p <= 50
    done = 0
    while done < 200:
        p = rng.choice([q for q in primes_upto(50) if q >= 5])
        a = rng.randrange(1, p)
        r = sqrt_mod_p2(a, p)
        if r is not None:
            assert all((x ** 2 - a) % (p * p) == 0 for x in r)
        done += 1

    # series ring laws on random inputs
    for _ in range(12):
        def rand():
            terms = [(n, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                     for n in range(rng.randint(0, 2), 30)]
            return PuiseuxSeries.from_terms(terms, mu=rng.choice([1, 3]), trunc=30)
        s1, s2, s3 = rand(), rand(), rand()
        assert (s1 + s2) + s3 == s1 + (s2 + s3)
        assert s1 * s2 == s2 * s1
        assert (s1 * (s2 + s3)).agrees_with(s1 * s2 + s1 * s3)

    report("8 (oracle suites: eta, counts, roots, ring laws)", True)
