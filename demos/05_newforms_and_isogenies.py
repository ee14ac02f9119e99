"""The four congruence newforms and the modular-polynomial relations.

The level-48 form is a single eta quotient; the level-432 form is an
eta/Eisenstein combination with coefficients in Q(sqrt2, sqrt-3); the
level-243 and level-486 forms are stored prime tables.  The exact Hecke
relation a_np = a_p a_n - chi(p) p^2 a_(n/p) is verified for the first two;
the stored tables' a_n come from that relation, so it cannot test them.
Isogeny relations between the surface parameterizations are certified by
modular polynomials: Phi_1..Phi_3 are built in, larger ones load from a
data file.
"""

from noncong import (INTER_FAMILY_RELATIONS, MissingPolynomialData, NEWFORMS,
                     hecke_check, isogeny_relation_check, newform_an,
                     newform_coefficients)
from noncong.surfaces import ISOGENY_BY_INVOLUTION

for tag, rec in NEWFORMS.items():
    char = "".join(f"({d}/p)" for d in rec.character)
    print(f"{tag}: level {rec.level}, character {char}, source {rec.source}")
    coeffs = newform_coefficients(tag, 23)
    row = "  ".join(f"A_{p}={v}" for p, v in sorted(coeffs.items()))
    print(f"   {row}")
    if rec.stored is not None:
        print("   stored A_p table, no independent Hecke check")
    else:
        rep = hecke_check(tag, 13, 6)
        print(f"   Hecke relation, p <= 13, n <= 6: "
              f"{'exact' if rep.ok else rep.violations} ({rep.checked} identities)")
print()

print("a_25 of the level-432 form from a_5 = 6 sqrt2:",
      newform_an("L432", 25), "(= 72 - chi(5) 25)")
print()

print("Self-isogeny relations Phi_d(j(E(t)), j(E(i(t)))) = 0:")
for key, rel in ISOGENY_BY_INVOLUTION.items():
    try:
        ok = isogeny_relation_check(rel, mode="symbolic")
        print(f"   {key}: degree {rel.d} -> {'verified symbolically' if ok else 'FAILED'}")
    except MissingPolynomialData:
        print(f"   {key}: degree {rel.d} -> needs a Phi_{rel.d} data file "
              f"(set NONCONG_MODPOLY_PATH)")

print()
print("Relations pairing the trace-table rows:")
for key, rel in INTER_FAMILY_RELATIONS.items():
    try:
        ok = isogeny_relation_check(rel, mode="sampled", primes=(101, 103))
        print(f"   pair {key}: Phi_{rel.d} sampled mod 101, 103 -> "
              f"{'zero everywhere' if ok else 'FAILED'}")
    except MissingPolynomialData:
        print(f"   pair {key}: needs a Phi_{rel.d} data file")
