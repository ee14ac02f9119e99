"""Exact q-expansions of the weight-3 basis pairs.

Each of the nine catalog groups carries two cusp forms h1, h2 given as cube
roots of eta quotients.  Their expansions live in q^(1/mu) with exact
rational coefficients (denominators are powers of 3); this script prints the
leading terms and then rebuilds the same forms the way they were found:
cube root of a hauptmodul times a weight-3 form on the parent group.
"""

from noncong import GROUPS, MAIN_GROUPS, basis_q_expansions, construct_basis
from noncong.surfaces import T


def show(series, terms=6):
    parts = []
    for e, c in series.terms()[:terms]:
        expo = f"q^({e})" if e.denominator > 1 else f"q^{e}"
        parts.append(f"({c})*{expo}")
    return " + ".join(parts) + " + ..."


for name, group in GROUPS.items():
    h1, h2 = basis_q_expansions(group, 30)
    print(f"== {name}   (cusp width {group.mu} at infinity)")
    print(f"   h1 = cbrt[{group.h1}] = {show(h1)}")
    print(f"   h2 = cbrt[{group.h2}] = {show(h2)}")

print()
print("Rebuilding each basis from the parent data (cube root of a Mobius")
print("map u of the parent's hauptmodul t, times a weight-3 form on the parent)")
print("and checking it against the eta-quotient expansions through 50")
print("coefficients:")
for parent in dict.fromkeys(GROUPS[name].parent for name in MAIN_GROUPS):
    print(f"   {parent.label}: t = eta[{parent.hauptmodul}]")
for name in MAIN_GROUPS:
    group = GROUPS[name]
    (a, b, c, d), form, power = group.construction
    construct_basis(group, order=50)   # raises on any mismatch
    u = (a * T + b) / (c * T + d)
    print(f"   {name}: h1 = u^({power}/3) * eta[{form}], u = {u}  -- exact match")
