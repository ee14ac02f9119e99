"""Reproduction of every printed ratio-table entry, exactly mod p^2.

Each golden CSV carries the printed (p, case, c1, c2) rows; this module
checks the computed constants against them and then verifies the printed
auxiliary residues (omega, square/cube roots, power and product columns) in
their defining roles.
"""

import csv
from pathlib import Path

import pytest

import published_tables
from noncong.catalog import GROUPS, get_group, newform_an
from noncong.congruence import detect_basis

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

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


def golden_rows(name):
    with open(GOLDEN / RATIO_FILES[name], newline="") as fh:
        return [(int(r["p"]), r["case"], int(r["c1"]), int(r["c2"]))
                for r in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def reports():
    cache = {}

    def get(name, p):
        if (name, p) not in cache:
            cache[(name, p)] = detect_basis(GROUPS[name], p, bound=500)
        return cache[(name, p)]
    return get


@pytest.mark.parametrize("name", sorted(RATIO_FILES))
def test_ratio_tables_reproduced(name, reports):
    for p, kind, c1, c2 in golden_rows(name):
        rep = reports(name, p)
        got = (rep.constants.get("a"), rep.constants.get("b")) \
            if rep.case_kind == "case1" else \
            (rep.constants.get("ab"), rep.constants.get("ba"))
        if (c1, c2) == (0, 0) and got == (0, 0):
            continue  # all-vanishing rows agree under either case label
        assert rep.case_kind == kind, (name, p, rep.case_kind)
        assert got == (c1, c2), (name, p, got, (c1, c2))


def test_detected_constants_match_newform_up_to_sixth_roots(reports):
    """Case-1 constants are u*A_p (u^6 = 1) and case-2 products are u*A_p^2,
    for every tabulated prime where the catalog knows A_p."""
    for name in sorted(RATIO_FILES):
        tag = GROUPS[name].newform
        for p, kind, c1, c2 in golden_rows(name):
            try:
                newform_an(tag, p)
            except KeyError:
                continue  # beyond the stored coefficient table: self-derived
            rep = reports(name, p)
            if rep.case_kind == "case1":
                for which in ("a", "b"):
                    assert rep.matches[which] is not None, (name, p, which)
            elif rep.case_kind == "case2":
                assert rep.matches.get("ap_squared") is not None, (name, p)


# --- per-table auxiliary columns -------------------------------------------------


def _unit_order(u, m):
    """Multiplicative order of u mod m, by brute force."""
    return next(k for k in range(1, m) if pow(u, k, m) == 1)


def _primitive_cube_roots(p):
    """The omega with omega^2 + omega + 1 = 0 mod p^2, by brute force."""
    m = p * p
    return {w for w in range(1, m) if pow(w, 3, m) == 1 and w != 1}


def test_ratios2_omega_columns(reports):
    for p, (omega, order) in published_tables.RATIOS2_AUX.items():
        m = p * p
        omega %= m
        rep = reports("gamma_8^3.2^3.3^2", p)
        ca, cb = rep.constants["a"], rep.constants["b"]
        ap = int(newform_an("L48", p).rational_value())
        assert pow(omega, 6, m) == 1
        assert _unit_order(omega, m) == order
        assert ca == ap * omega % m
        assert cb == ap * pow(omega, -1, m) % m


def test_ratios3_sqrt_columns(reports):
    for p, s in published_tables.RATIOS3_SQRT_M3.items():
        m = p * p
        assert (s * s + 3) % m == 0
    # the sqrt(-3) rows (A_p a multiple of sqrt(-3)): c_a * c_b = u * A_p^2
    # for a sixth root u, with A_p^2 = -3 k^2
    for p, k in ((7, 1), (19, 11), (31, 24), (43, 24)):
        rep = reports("gamma_8^3.6.3.1^3", p)
        m = p * p
        prod = rep.constants["a"] * rep.constants["b"] % m
        target = (-3 * k * k) % m
        units = {u for u in range(1, m) if pow(u, 6, m) == 1}
        assert any(prod == target * u % m for u in units), p


def test_ratios4_power_and_product_columns(reports):
    for p, (sixth, ap2) in published_tables.RATIOS4_COLS.items():
        rep = reports("gamma_8^3.6.3.1^3", p)
        assert rep.case_kind == "case2"
        m = p * p
        assert rep.alpha_power_pattern[6] == sixth % m, p
        assert rep.ap_squared == ap2 % m, p
        # the printed expression is the newform square up to the square of
        # the twisting unit: -A_p^2 on the sqrt(2) rows, +A_p^2 on sqrt(-6)
        apsq = (newform_an("L432", p) * newform_an("L432", p)).rational_value()
        sign = 1 if p % 12 == 11 else -1
        assert ap2 % m == (sign * apsq) % m, p


def test_ratios5_6_match_ratios3_4(reports):
    for p, kind, c1, c2 in golden_rows("gamma_24.3.2^3.1^3"):
        other = {q: (k, d1, d2) for q, k, d1, d2 in golden_rows("gamma_8^3.6.3.1^3")}
        assert other[p] == (kind, c1, c2)


def test_sp_case1_cube_identity(reports):
    """(c_a/c_b)^3 = 1 mod p^2 at p = 7, 13, 31, 37; at 19 only mod p."""
    for p in (7, 13, 31, 37):
        rep = reports("gamma_18.6.3^3.1^3", p)
        m = p * p
        ratio = rep.constants["a"] * pow(rep.constants["b"], -1, m) % m
        assert pow(ratio, 3, m) == 1, p
    rep = reports("gamma_18.6.3^3.1^3", 19)
    ca, cb = rep.constants["a"], rep.constants["b"]
    assert ca % 19 == 0 and cb % 19 == 0 and cb % 361 != 0
    ratio = (ca // 19) * pow(cb // 19, -1, 19) % 19
    assert pow(ratio, 3, 19) == 1


def test_sp_case1_constants_are_ap_times_cube_roots(reports):
    for p in (7, 13, 19, 31, 37):
        rep = reports("gamma_18.6.3^3.1^3", p)
        m = p * p
        ap = newform_an("L243", p)
        a0 = int(ap.rational_value())
        omegas = _primitive_cube_roots(p)
        assert len(omegas) == 2 and all((w * w + w + 1) % m == 0 for w in omegas)
        matched = False
        for w in omegas:
            w2 = w * w % m
            if (rep.constants["a"], rep.constants["b"]) == (a0 * w2 % m, a0 * w % m):
                matched = True
        assert matched, p


def test_sp_case2_cube_is_minus_nine_and_k_factorization(reports):
    for p, k in published_tables.SP_CASE2_K.items():
        rep = reports("gamma_18.6.3^3.1^3", p)
        m = p * p
        assert rep.alpha_power_pattern[3] == (-9) % m, p
        cbrt3 = published_tables.SS96_CBRT3[p]
        assert pow(cbrt3, 3, m) == 3 % m
        assert rep.constants["ab"] == (-k * cbrt3) % m, p
        assert rep.constants["ba"] == k * pow(cbrt3, -1, m) % m, p
        # A_p = k i from the stored table
        ap = newform_an("L243", p)
        assert ap.c[1] == k and ap.c[0] == 0


def test_ss96_table_columns(reports):
    name = "gamma_9.6^3.3.2^3"
    for p, (w, w2) in published_tables.SS96_OMEGA.items():
        m = p * p
        assert (w * w + w + 1) % m == 0
        assert w2 == w * w % m
        rep = reports(name, p)
        a_val = published_tables.SS96_CASE1_A[p]
        assert rep.constants["a"] == a_val * w2 % m, p
        assert rep.constants["b"] == a_val * w % m, p
    for p, c in published_tables.SS96_CBRT3.items():
        m = p * p
        assert pow(c, 3, m) == 3 % m
        rep = reports(name, p)
        k = published_tables.SS96_CASE2_K[p]
        assert rep.constants["ab"] == (-k * c) % m, p
        assert rep.constants["ba"] == k * pow(c, -1, m) % m, p


def test_ss96_derived_ap_at_43(reports):
    # beyond the stored coefficient table, A_43 = 29 is recovered from the ratios
    rep = reports("gamma_9.6^3.3.2^3", 43)
    m = 43 * 43
    assert rep.constants["a"] * rep.constants["b"] % m == 29 * 29 % m


def test_ss961_power_and_product_columns(reports):
    name = "gamma_9.6^4.1^3"
    for p, (cube, prod) in published_tables.SS961_CASE1_COLS.items():
        rep = reports(name, p)
        m = p * p
        ca, cb = rep.constants["a"], rep.constants["b"]
        if p == 7:
            # constants divisible by p: the cube identity is stated after
            # stripping, the product is 0 mod p^2
            assert ca * cb % m == 0 == prod % m
        else:
            assert pow(ca * pow(cb, -1, m), 3, m) == cube % m
            assert ca * cb % m == prod % m, p
        apsq = (newform_an("L486", p) * newform_an("L486", p)).rational_value()
        assert prod % m == apsq % m, p
    for p, (sixth, prod) in published_tables.SS961_CASE2_COLS.items():
        rep = reports(name, p)
        m = p * p
        assert rep.alpha_power_pattern[6] == sixth % m, p
        assert rep.ap_squared == prod % m, p
        apsq = (newform_an("L486", p) * newform_an("L486", p)).rational_value()
        assert prod % m == apsq % m, p


def test_ss183_table_columns(reports):
    name = "gamma_18.3^4.2^3"
    for p, (w, w2) in published_tables.SS183_OMEGA.items():
        m = p * p
        rep = reports(name, p)
        a_val = published_tables.SS183_CASE1_A[p]
        assert rep.constants["a"] == a_val * w2 % m, p
        assert rep.constants["b"] == a_val * w % m, p
    for p, k in published_tables.SS183_CASE2_K.items():
        m = p * p
        c = published_tables.SS183_CBRT3[p]
        rep = reports(name, p)
        assert rep.constants["ab"] == (-k * 6 * c) % m, p
        assert rep.constants["ba"] == k * 3 * pow(c, -1, m) % m, p
        # k is A_p / (3 sqrt(-2)) in the stored table
        ap = newform_an("L486", p)
        assert ap.c[1] == 3 * k and ap.c[0] == 0, p


def test_ratios7_factored_forms(reports):
    name = "gamma_24.3.2^3.1^3B"
    for p, row in published_tables.RATIOS7_ROWS.items():
        m = p * p
        w = row["omega"]
        assert (w * w + w + 1) % m == 0, p
        root = row["sqrt_m3"]
        if root is not None:
            assert (root * root + 3) % m == 0, p
        rep = reports(name, p)
        for which, (sign, mag, uses_root, wexp) in (("a", row["a"]), ("b", row["b"])):
            val = sign * mag * (root if uses_root else 1) * pow(w, wexp, m) % m
            assert rep.constants[which] == val, (p, which)


def test_ratios8_cross_rows(reports):
    name = "gamma_24.3.2^3.1^3B"
    for p, row in published_tables.RATIOS8_CROSS.items():
        m = p * p
        k, cbrt2, s = row["K"], row["cbrt2"], row["sign"]
        kindh, helper = row["helper"]
        assert pow(cbrt2, 3, m) == 2 % m, p
        rep = reports(name, p)
        if kindh == "i":
            assert (helper * helper + 1) % m == 0, p
            c1 = s * k * helper * pow(cbrt2, -1, m) % m
            c2 = s * 2 * k * helper * cbrt2 % m
        else:
            assert (helper * helper - 3) % m == 0, p
            c1 = s * k * helper * pow(cbrt2, -1, m) % m
            c2 = -s * 2 * k * helper * cbrt2 % m
        assert rep.constants["ab"] == c1, p
        assert rep.constants["ba"] == c2, p
        # either way the product is the sign-free -6K^2 (i rows: -2K^2)
        want = (-2 if kindh == "i" else -6) * k * k % m
        assert rep.constants["ab"] * rep.constants["ba"] % m == want, p


def test_ratios8_zero_row():
    rep = detect_basis(get_group("24.3.2^3.1^3B"), 41, bound=500)
    assert (rep.constants.get("ab"), rep.constants.get("ba")) == (0, 0)


def test_cbrt3_examples_from_text():
    for p, v in published_tables.CBRT3_EXAMPLES.items():
        m = p * p
        assert pow(v, 3, m) == 3
        assert [x for x in range(m) if pow(x, 3, m) == 3] == [v]


def test_ratios2_sixth_power_observation(reports):
    """(c_a/c_b)^6 = 1 mod p^2 at every nonzero case-1 prime of the twisted
    level-48 group."""
    for p in (7, 13, 19, 31, 37, 43):
        rep = reports("gamma_8^3.2^3.3^2", p)
        m = p * p
        ratio = rep.constants["a"] * pow(rep.constants["b"], -1, m) % m
        assert pow(ratio, 6, m) == 1, p


def test_ratios3_sixth_power_excludes_13(reports):
    """For the level-432 group the sixth-power identity holds mod p^2 at the
    case-1 primes except p = 13, where A_13 = 13 divides both constants and
    only the mod-p statement survives."""
    for p in (7, 19, 31, 37, 43):
        rep = reports("gamma_8^3.6.3.1^3", p)
        m = p * p
        ratio = rep.constants["a"] * pow(rep.constants["b"], -1, m) % m
        assert pow(ratio, 6, m) == 1, p
    rep = reports("gamma_8^3.6.3.1^3", 13)
    ca, cb = rep.constants["a"], rep.constants["b"]
    assert ca % 13 == 0 and cb % 13 == 0
    ratio = (ca // 13) * pow(cb // 13, -1, 13) % 13
    assert pow(ratio, 6, 13) == 1
