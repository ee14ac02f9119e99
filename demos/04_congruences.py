"""The three-term congruences mod p^2.

For each group and good prime the detector tests whether a_{np}/a_n and
b_{np}/b_n are constant mod p^2 (case 1: h1, h2 is already the right basis)
and otherwise whether the cross ratios a_{np}/b_n, b_{np}/a_n are constant
(case 2: the basis is h1 +- alpha h2, with alpha^2 and A_p^2 read off the
two constants).  Detected constants are matched to the associated newform
coefficient up to a sixth root of unity.
"""

from noncong import (GROUPS, aswd_three_term_check, character_value,
                     coefficient_sequence, detect_bases, get_group, primes_upto)

for name in ("gamma_24.6.1^6", "gamma_8^3.2^3.3^2", "gamma_18.6.3^3.1^3",
             "gamma_24.3.2^3.1^3B"):
    g = GROUPS[name]
    print(f"== {name}  (newform {g.newform})")
    for rep in detect_bases(g, [q for q in primes_upto(37) if q >= 5], bound=500):
        p = rep.p
        if rep.case_kind == "case1":
            line = (f"   p={p:>2} case1  a_np/a_n = {rep.constants['a']:>5}"
                    f"  b_np/b_n = {rep.constants['b']:>5}")
        else:
            line = (f"   p={p:>2} case2  a_np/b_n = {rep.constants['ab']:>5}"
                    f"  b_np/a_n = {rep.constants['ba']:>5}"
                    f"  A_p^2 = {rep.ap_squared}")
        m = rep.matches.get("a") or rep.matches.get("ap_squared")
        if m:
            line += f"   = newform * u, u of order {m.order}"
        print(line)
    print()

print("Three-term check for h1 of gamma_24.6.1^6 against A_7 = -2:")
g = get_group("24.6.1^6")
a = coefficient_sequence(g, "a", 500)
chi = character_value((-3,), 7)
rep = aswd_three_term_check(a, -2, chi, 7, 70)
print(f"   v_7(a_7n + 2 a_n + chi(7) 49 a_(n/7)) >= 2(1 + ord_7(n)) for n <= 70: "
      f"{'holds' if rep.ok else f'fails at {rep.failures}'}")
bad = aswd_three_term_check(a, 1, chi, 7, 5)
print(f"   ... with the deliberately wrong A_7 = 1: fails at n = {bad.failures}")
