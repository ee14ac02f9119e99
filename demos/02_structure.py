"""Structural facts about the nine groups.

Cusp-width multisets prove noncongruence (none appears among the six
congruence multisets of index 36), the generator traces give the regular /
irregular cusp split and hence dim S_3 = 2, and the base involutions lift to
the covers: (iota(cbrt m(t)))^3 = m(i(t)) holds as an exact identity in Q(t).
"""

from noncong import (COVERINGS, GROUPS, MAIN_GROUPS, cusp_regularity,
                     derived_cusp_counts, dim_cusp_forms,
                     involution_identity_check, noncongruence_test)

for name, g in GROUPS.items():
    verdict = noncongruence_test(g.cusp_widths)
    kinds = cusp_regularity(g.generators)
    u, ui = derived_cusp_counts(g)
    dim = dim_cusp_forms(3, 0, u, ui)
    print(f"{name}")
    print(f"   widths {sorted(g.cusp_widths, reverse=True)} -> {verdict}")
    print(f"   generators all parabolic, traces +2 ({kinds.count('regular')} regular)"
          f" -> (u, u') = ({u}, {ui}), dim S_3 = {dim}")

print()
print("Involution identities (iota(r)^3 = m(i(t)) with r^3 = m(t)):")
for name in MAIN_GROUPS:
    ok = involution_identity_check(GROUPS[name])
    cover = COVERINGS[name]
    print(f"   {name}: i(t) = {cover.relation.sub_b}, iota(r) = {cover.involution_cover}"
          f"  -> {'verified' if ok else 'FAILED'}")

print()
print("Isogeny data carried by each base involution:")
seen = set()
for name in MAIN_GROUPS:
    rel = COVERINGS[name].relation
    if rel in seen:
        continue
    seen.add(rel)
    print(f"   degree {rel.d}, kernel roots of {rel.kernel}, defined over {rel.field}")
