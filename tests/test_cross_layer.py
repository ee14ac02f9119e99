"""Cross-layer identities between the mod-p^2 congruence constants of the
basis forms (``detect_bases`` at bound 1000) and the Frobenius traces of the
group's own surfaces, at every prime 5 <= p <= 97:

* case 2: ap_squared = Tr_{p^2}/2 - 2p^2 (mod p^2), for every family of
  every L432, L243 and L486 group;
* case 1, product: c_a c_b = chi(p) A_p^2 (mod p^2), wherever the catalog
  A_p reduces mod p^2;
* case 1, sum: c_a + c_b = Tr_p (mod p^2), for one family of three groups.

These are the targets a group's surface can supply where the stored A_p
tables end.  Each test also counts its rows, so that a change in which
rows are case 1 or case 2 shows as a changed count, not as fewer checks.

The last test ties the catalog's q-expansions to the surface families: the
j-invariant of each parent's Beauville family at the parent's hauptmodul is
Klein's j(q)."""

from functools import cache

import pytest

from noncong.catalog import (GROUPS, MAIN_GROUPS, NEWFORMS, PARENT6, PARENT8,
                             character_value, primes_upto)
from noncong.congruence import catalog_ap_residue, detect_bases
from noncong.series import EtaQuotient, PuiseuxSeries, sigma_table
from noncong.surfaces import beauville_short, j_invariant
from noncong.traces import frobenius_trace, surface_families

PRIMES = tuple(p for p in primes_upto(97) if p >= 5)
SUM_FAMILIES = ("E8(r^3-1)", "E6(3r^3)", "E6(1-24/r^3)")


@cache
def reports():
    """(group, its families, its reports at PRIMES) for the main groups."""
    return [(GROUPS[name], surface_families(GROUPS[name]),
             detect_bases(GROUPS[name], PRIMES, 1000)) for name in MAIN_GROUPS]


def test_case2_constant_is_the_p2_trace():
    rows = 0
    for group, families, reps in reports():
        if group.newform not in ("L432", "L243", "L486"):
            continue
        for rep in reps:
            if rep.case_kind != "case2" or rep.ap_squared is None:
                continue        # cross constants vanishing mod p solve for no A_p^2
            p = rep.p
            for fam in families:
                tr2 = frobenius_trace(fam, p, True)
                assert (tr2 // 2 - 2 * p * p - rep.ap_squared) % (p * p) == 0, \
                    (group.name, fam.label, p)
                rows += 1
    assert rows == 113


def test_case1_product_is_chi_times_ap_squared():
    rows = 0
    for group, _, reps in reports():
        chi_discs = NEWFORMS[group.newform].character
        for rep in reps:
            ap = catalog_ap_residue(group.newform, rep.p)
            if rep.case_kind != "case1" or ap is None:
                continue
            p, c = rep.p, rep.constants
            chi = character_value(chi_discs, p)
            assert (c["a"] * c["b"] - chi * ap * ap) % (p * p) == 0, (group.name, p)
            rows += 1
    assert rows == 96


@pytest.mark.parametrize("label", SUM_FAMILIES)
def test_case1_sum_is_the_p_trace(label):
    (group, fam, reps), = [(g, f, r) for g, fams, r in reports()
                           for f in fams if f.label == label]
    rows = 0
    for rep in reps:
        if rep.case_kind != "case1":
            continue
        p, c = rep.p, rep.constants
        assert (c["a"] + c["b"] - frobenius_trace(fam, p)) % (p * p) == 0, (group.name, p)
        rows += 1
    assert rows == {"E8(r^3-1)": 12, "E6(3r^3)": 12, "E6(1-24/r^3)": 11}[label]


def _j_of_family_at(family: str, t: PuiseuxSeries) -> PuiseuxSeries:
    """j of the Beauville family at the parameter series t, by Horner."""
    j = j_invariant(beauville_short(family))
    values = []
    for poly in (j.num, j.den):
        value = PuiseuxSeries.constant(0, t.trunc)
        for c in reversed(poly):
            value = value * t + c
        values.append(value)
    return values[0] / values[1]


# (parent, the Mobius map (a, b, c, d) taking its hauptmodul x to the family
# parameter t = (a x + b)/(c x + d), whether j(t) is Klein's j)
J_CASES = [(PARENT8, (1, 0, 0, 1), True),      # E8 at t = T8
           (PARENT6, (0, 1, 9, 0), True),      # E6 at t = 1/(9X)
           (PARENT6, (1, 0, 0, 1), False)]     # negative control: E6 at X is j(q^3)


@pytest.mark.parametrize("parent,mobius,klein", J_CASES,
                         ids=["E8-at-T8", "E6-at-1/(9X)", "E6-at-X-fails"])
def test_family_j_at_the_hauptmodul_is_klein_j(parent, mobius, klein):
    order = 30
    sigma3 = [sum(d ** 3 for d in range(1, n + 1) if n % d == 0) for n in range(order)]
    e4 = PuiseuxSeries(1, 0, [1] + [240 * s for s in sigma3[1:]], order)
    j_q = e4 ** 3 / EtaQuotient.of({1: 24}).expansion(order)     # E4^3 / Delta
    assert [j_q.coefficient(n) for n in (-1, 0, 1)] == [1, 744, 196884]
    a, b, c, d = mobius
    x = parent.hauptmodul.expansion(order)
    j_t = _j_of_family_at(parent.family, (x.scale(a) + b) / (x.scale(c) + d))
    assert min(j_t.truncation_exponent, j_q.truncation_exponent) > 20
    assert j_t.agrees_with(j_q, through=21) is klein
