"""Catalog of the two congruence parents, the eight index-3 noncongruence
subgroups (plus the conjugate B-variant), and the four associated weight-3
congruence newforms, together with the group-theoretic operations: the
dimension formula, cusp regularity, the cusp-width noncongruence test, the
cube-root basis construction, newform coefficient access and Hecke checks.
Each parent is one ``Parent`` record (printed label, Beauville family,
hauptmodul), and every group holds its parent's record.
The groups' covering maps, involutions and surface twists are surface
geometry and live in ``surfaces.COVERINGS``, keyed by group name.

The basis coefficients come two ways: exactly here
(``basis_q_expansions``, ``coefficient_sequence``), and mod a batch of
moduli in ``residues`` (``coefficient_residues``).  Both place the printed
a_n by one index map, ``lattice_map``, and the exact path is the reference
the residues are tested against.  Each newform's record says where its
coefficients come from: integer coefficient lists of eta products (and E6)
for L48 and L432, a stored A_p table and the Hecke recursion for L243 and
L486.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .series import (EtaQuotient, PuiseuxSeries, _convolve, eisenstein_e6_ints,
                     eta_product_ints)

# ---------------------------------------------------------------------------
# small number-theory utilities


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(sieve[p * p:: p])
    return [i for i in range(2, n + 1) if sieve[i]]


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def character_value(discriminants, p: int) -> int:
    """Product of Kronecker symbols (d/p) at a prime p coprime to all d."""
    if p < 2:
        raise ValueError("character values are defined here at primes only")
    val = 1
    for d in discriminants:
        if d % p == 0:
            raise ValueError(f"prime {p} divides the discriminant {d}")
        val *= kronecker_symbol(d, p)
    return val


# ---------------------------------------------------------------------------
# biquadratic coefficients c0 + c1*sqrt(d1) + c2*sqrt(d2) + c3*sqrt(d1*d2)


class BiquadraticNumber(namedtuple("BiquadraticNumber", "d1 d2 c")):
    """c[0] + c[1] sqrt(d1) + c[2] sqrt(d2) + c[3] sqrt(d1 d2), each c[i] a
    Fraction."""
    __slots__ = ()

    def __new__(cls, d1: int, d2: int, c: tuple[Fraction, Fraction, Fraction, Fraction]):
        if d1 == d2 or d1 == 1 or d2 == 1:
            raise ValueError("need two distinct squarefree non-unit discriminants")
        return super().__new__(cls, d1, d2, c)

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace checks too

    @classmethod
    def make(cls, d1, d2, c0=0, c1=0, c2=0, c3=0) -> "BiquadraticNumber":
        return cls(d1, d2, (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)))

    @property
    def is_rational(self) -> bool:
        return self.c[1] == 0 and self.c[2] == 0 and self.c[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.c[0]

    def _check(self, other):
        if (self.d1, self.d2) != (other.d1, other.d2):
            raise ValueError("incompatible biquadratic configurations")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiquadraticNumber.make(self.d1, self.d2, other)
        self._check(other)
        return BiquadraticNumber(self.d1, self.d2,
                                 tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return BiquadraticNumber(self.d1, self.d2, tuple(-a for a in self.c))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiquadraticNumber.make(self.d1, self.d2, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiquadraticNumber(self.d1, self.d2,
                                     tuple(Fraction(other) * a for a in self.c))
        self._check(other)
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        d1, d2 = self.d1, self.d2
        return BiquadraticNumber(d1, d2, (
            a0 * b0 + d1 * a1 * b1 + d2 * a2 * b2 + d1 * d2 * a3 * b3,
            a0 * b1 + a1 * b0 + d2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + d1 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        ))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.c[0] == other
        return (self.d1, self.d2) == (other.d1, other.d2) and self.c == other.c

    def __ne__(self, other):        # not tuple's
        return not self == other

    def __hash__(self):
        return hash((self.d1, self.d2, self.c))

    def __repr__(self):
        names = ["", f"sqrt({self.d1})", f"sqrt({self.d2})", f"sqrt({self.d1 * self.d2})"]
        parts = []
        for coeff, name in zip(self.c, names):
            if coeff:
                parts.append(f"{coeff}{'*' + name if name else ''}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# parent-level eta data

ETA_T8 = EtaQuotient.of({1: 8, 4: 4, 2: -12})          # hauptmodul of the level-8 parent
ETA_EA = EtaQuotient.of({4: 4, 2: 6, 1: -4})           # weight 3
ETA_EB = EtaQuotient.of({2: 8, 8: 4, 4: -6})           # weight 3, (2t/(t+1)) * Ea

ETA_A6 = EtaQuotient.of({1: 1, 6: 6, 2: -2, 3: -3})    # weight 1 forms on the
ETA_B6 = EtaQuotient.of({2: 1, 3: 6, 1: -2, 6: -3})    # level-6 parent
ETA_C6 = EtaQuotient.of({3: 1, 2: 6, 6: -2, 1: -3})
ETA_D6 = EtaQuotient.of({6: 1, 1: 6, 3: -2, 2: -3})
# X = b/d is the level-6 hauptmodul; a/c = (1-X)/(1-9X), b/c = -8X/(1-9X)
# and a/d = (X-1)/8.  acd and bcd are the weight-3 forms.
ETA_X6 = EtaQuotient.of({1: -8, 2: 4, 3: 8, 6: -4})
ETA_ACD = EtaQuotient.of({1: 4, 2: 1, 3: -4, 6: 5})
ETA_BCD = EtaQuotient.of({1: 1, 2: 4, 3: 5, 6: -4})


class Parent(namedtuple("Parent", "label family hauptmodul")):
    """A congruence parent: its printed label, the key of the Beauville
    family (``surfaces.BEAUVILLE``) over its base curve, and its hauptmodul
    as an eta quotient."""
    __slots__ = ()


PARENT8 = Parent("Gamma0(8)^Gamma1(4)", "E8", ETA_T8)
PARENT6 = Parent("Gamma1(6)", "E6", ETA_X6)

SEBBAR_WIDTH_MULTISETS = frozenset({
    (3, 3, 3, 3, 6, 6, 6, 6),
    (1, 1, 1, 3, 3, 9, 9, 9),
    (3, 3, 3, 3, 3, 3, 9, 9),
    (1, 1, 2, 2, 5, 5, 10, 10),
    (1, 1, 1, 2, 2, 2, 9, 18),
    (1, 1, 1, 1, 1, 1, 3, 27),
})


# ---------------------------------------------------------------------------
# groups


class GroupRecord(namedtuple("GroupRecord", (
        "name", "parent",               # str, Parent
        "cusp_widths",                  # (int, ...)
        "generators",                   # (((a, b), (c, d)), ...)
        "h1", "h2",                     # EtaQuotient
        "h1_unit", "h2_unit",           # printed index n <-> series index n*unit
        "newform",                      # tag in NEWFORMS
        # h1 = u^(k/3) F and h2 = u^((3-k)/3) F for u = (a x + b)/(c x + d), x the
        # parent's hauptmodul: ((a, b, c, d), weight-3 eta quotient F, k), or None
        "construction",
        "variant_of"),                  # the catalog group this one is conjugate to
        defaults=(None, None))):
    __slots__ = ()

    def __hash__(self):     # the per-group caches key on records; names are unique
        return hash(self.name)

    @property
    def mu(self) -> int:
        """The cusp width at infinity: |b| of the one generator +-T^mu."""
        widths = [abs(b) for (_, b), (c, _) in self.generators if c == 0]
        if len(widths) != 1:
            raise ValueError(f"{self.name}: {len(widths)} generators fix infinity, not one")
        return widths[0]


def _g(rows):
    return tuple(((a, b), (c, d)) for a, b, c, d in rows)


GROUPS: dict[str, GroupRecord] = {}


def _add(rec: GroupRecord):
    GROUPS[rec.name] = rec


_add(GroupRecord(
    name="gamma_24.6.1^6", parent=PARENT8,
    cusp_widths=(24, 6, 1, 1, 1, 1, 1, 1),
    generators=_g([(1, 0, 24, 1), (9, -1, 64, -7), (5, -1, 16, -3), (1, 1, 0, 1),
                   (-3, -1, 16, 5), (-7, -1, 64, 9), (-11, -1, 144, 13)]),
    h1=EtaQuotient.of({1: 4, 2: -6, 4: 20}),
    h2=EtaQuotient.of({1: -4, 2: 6, 4: 16}),
    h1_unit=1, h2_unit=1, newform="L48",
    construction=((1, 0, 0, 1), ETA_EA, 2),
))

_add(GroupRecord(
    name="gamma_8^3.2^3.3^2", parent=PARENT8,
    cusp_widths=(8, 8, 8, 2, 2, 2, 3, 3),
    generators=_g([(1, 3, 0, 1), (-7, -8, 8, 9), (-3, -2, 8, 5), (1, 0, 8, 1),
                   (5, -2, 8, -3), (9, -8, 8, -7), (13, -18, 8, -11)]),
    h1=EtaQuotient.of({2: 20, 4: -6, 8: 4}),
    h2=EtaQuotient.of({2: 16, 4: 6, 8: -4}),
    h1_unit=2, h2_unit=1, newform="L48",
    construction=((4, 4, -1, 1), ETA_EB, 1),
))

_add(GroupRecord(
    name="gamma_8^3.6.3.1^3", parent=PARENT8,
    cusp_widths=(8, 8, 8, 6, 3, 1, 1, 1),
    generators=_g([(-11, 6, -24, 13), (41, -25, 64, -39), (49, -32, 72, -47),
                   (1, 1, 0, 1), (1, 0, 8, 1), (25, -9, 64, -23), (81, -32, 200, -79)]),
    h1=EtaQuotient.of({1: 4, 2: 10, 4: -4, 8: 8}),
    h2=EtaQuotient.of({1: 8, 2: -4, 4: 10, 8: 4}),
    h1_unit=1, h2_unit=1, newform="L432",
    construction=((1, 1, 0, 2), ETA_EB, 1),
))

_add(GroupRecord(
    name="gamma_24.3.2^3.1^3", parent=PARENT8,
    cusp_widths=(24, 3, 2, 2, 2, 1, 1, 1),
    generators=_g([(1, 0, 24, 1), (21, -2, 200, -19), (9, -1, 64, -7), (5, -2, 8, -3),
                   (1, 1, 0, 1), (-11, -2, 72, 13), (-7, -1, 64, 9)]),
    h1=EtaQuotient.of({1: -4, 2: 22, 4: -8, 8: 8}),
    h2=EtaQuotient.of({1: -8, 2: 20, 4: 2, 8: 4}),
    h1_unit=1, h2_unit=1, newform="L432",
    construction=((1, 1, 2, 0), ETA_EB, 1),
))

# Conjugate variant of gamma_24.3.2^3.1^3 by (0 -1; 8 0), with the widths
# its generators give; basis forms as given with r = q^(1/3), h1 at r^2.
_add(GroupRecord(
    name="gamma_24.3.2^3.1^3B", parent=PARENT8,
    cusp_widths=(8, 8, 8, 6, 3, 1, 1, 1),
    generators=_g([(1, -3, 0, 1), (-19, -25, 16, 21), (-7, -8, 8, 9), (-3, -1, 16, 5),
                   (1, 0, -8, 1), (13, -9, 16, -11), (9, -8, 8, -7)]),
    h1=EtaQuotient.of({1: 8, 2: -8, 4: 22, 8: -4}),
    h2=EtaQuotient.of({1: 4, 2: 2, 4: 20, 8: -8}),
    h1_unit=1, h2_unit=1, newform="L432", variant_of="gamma_24.3.2^3.1^3",
))

_add(GroupRecord(
    name="gamma_18.6.3^3.1^3", parent=PARENT6,
    cusp_widths=(18, 6, 3, 3, 3, 1, 1, 1),
    generators=_g([(1, 0, 18, 1), (25, -3, 192, -23), (7, -1, 36, -5), (7, -3, 12, -5),
                   (1, 1, 0, 1), (-11, -3, 48, 13), (-5, -1, 36, 7)]),
    h1=EtaQuotient.of({1: 4, 2: 7, 3: -4, 6: 11}),
    h2=EtaQuotient.of({1: -4, 2: 11, 3: 4, 6: 7}),
    h1_unit=1, h2_unit=1, newform="L243",
    construction=((1, 0, 0, 1), ETA_ACD, 1),
))

_add(GroupRecord(
    name="gamma_9.6^3.3.2^3", parent=PARENT6,
    cusp_widths=(9, 6, 6, 6, 3, 2, 2, 2),
    generators=_g([(1, 3, 0, 1), (-5, -6, 6, 7), (-11, -8, 18, 13), (1, 0, 6, 1),
                   (7, -2, 18, -5), (7, -6, 6, -5), (25, -32, 18, -23)]),
    h1=EtaQuotient.of({1: 7, 2: 4, 3: 11, 6: -4}),
    h2=EtaQuotient.of({1: 11, 2: -4, 3: 7, 6: 4}),
    h1_unit=1, h2_unit=1, newform="L243",
    construction=((-1, 1, -9, 1), ETA_BCD, 1),
))

_add(GroupRecord(
    name="gamma_9.6^4.1^3", parent=PARENT6,
    cusp_widths=(9, 6, 6, 6, 6, 1, 1, 1),
    generators=_g([(-17, 6, -54, 19), (127, -49, 324, -125), (61, -24, 150, -59),
                   (1, 1, 0, 1), (1, 0, 6, 1), (91, -25, 324, -89), (85, -24, 294, -83)]),
    h1=EtaQuotient.of({1: 13, 2: -2, 3: -7, 6: 14}),
    h2=EtaQuotient.of({1: 14, 2: -7, 3: -2, 6: 13}),
    h1_unit=1, h2_unit=1, newform="L486",
    construction=((-8, 0, -9, 1), ETA_ACD, 1),
))

_add(GroupRecord(
    name="gamma_18.3^4.2^3", parent=PARENT6,
    cusp_widths=(18, 3, 3, 3, 3, 2, 2, 2),
    generators=_g([(1, 3, 0, 1), (-11, -8, 18, 13), (-5, -3, 12, 7), (7, -2, 18, -5),
                   (7, -3, 12, -5), (25, -32, 18, -23), (19, -27, 12, -17)]),
    h1=EtaQuotient.of({1: -2, 2: 13, 3: 14, 6: -7}),
    h2=EtaQuotient.of({1: -7, 2: 14, 3: 13, 6: -2}),
    h1_unit=1, h2_unit=1, newform="L486",
    construction=((1, -1, 0, 8), ETA_BCD, 1),
))

MAIN_GROUPS = tuple(n for n, g in GROUPS.items() if g.variant_of is None)


def get_group(name: str) -> GroupRecord:
    key = name.strip()
    if not key.startswith("gamma_"):
        key = "gamma_" + key
    if key not in GROUPS:
        known = ", ".join(GROUPS)
        raise KeyError(f"unknown group {name!r}; catalog has: {known}")
    return GROUPS[key]


# ---------------------------------------------------------------------------
# structural operations


def dim_cusp_forms(k: int, g: int, u: int, u_irr: int, elliptic_orders=()) -> int:
    """Dimension of the weight-k cusp forms (odd k) of a genus-g subgroup with
    u regular and u_irr irregular cusps and the given elliptic-point orders."""
    if k % 2 == 0 or k < 3:
        raise ValueError("this formula needs odd k >= 3")
    val = Fraction(k - 1) * (g - 1) + Fraction(k - 2, 2) * u + Fraction(k - 1, 2) * u_irr
    val += sum(Fraction(k * (e - 1), 2 * e) for e in elliptic_orders)
    if val.denominator != 1:
        raise ValueError(f"non-integral dimension {val}: invalid input combination")
    return int(val)


def cusp_regularity(generators) -> list[str]:
    """Classify each generator: 'regular' (trace +2), 'irregular' (trace -2),
    or 'notParabolic'.  Matrices must be integral with determinant 1."""
    out = []
    for (a, b), (c, d) in generators:
        if a * d - b * c != 1:
            raise ValueError(f"matrix {((a, b), (c, d))} has determinant != 1")
        tr = a + d
        if abs(tr) != 2 or (b == 0 and c == 0):
            out.append("notParabolic")
        elif tr == 2:
            out.append("regular")
        else:
            out.append("irregular")
    return out


def derived_cusp_counts(group: GroupRecord) -> tuple[int, int]:
    """(u, u') from the generator traces and the 8-cusp width multiset."""
    kinds = cusp_regularity(group.generators)
    irr = kinds.count("irregular")
    if "notParabolic" in kinds:
        raise ValueError(f"{group.name}: non-parabolic generator")
    return len(group.cusp_widths) - irr, irr


def noncongruence_test(cusp_widths) -> str:
    """'noncongruence' when the width multiset is not one of the index-36
    genus-0 torsion-free congruence multisets, else 'inconclusive'."""
    widths = tuple(sorted(cusp_widths))
    if sum(widths) != 36:
        raise ValueError("out of scope: cusp widths must sum to 36")
    return "inconclusive" if widths in SEBBAR_WIDTH_MULTISETS else "noncongruence"


# ---------------------------------------------------------------------------
# basis series


def _form(group: GroupRecord, which: str) -> tuple[EtaQuotient, int]:
    """(eta quotient, index unit) of h1 ('a') or h2 ('b')."""
    return (group.h1, group.h1_unit) if which == "a" else (group.h2, group.h2_unit)


# A basis form is q^(s/72) P(q)^(1/3) with s = prefactor24 and P the product of
# the (1 - q^(k n))^e; P is a series in x = q^g for g the gcd of the scales k.
# The printed a_n sits at q^(n unit/mu), i.e. at x^j with
# 72 mu g j = 72 n unit - s mu; any other n has a_n = 0 by construction.  The
# exact series and the residues both place a_n by this one map.


def lattice_map(group: GroupRecord, which: str):
    """(eta quotient, g, 72 unit, s mu, 72 mu g) for one basis form."""
    eq, unit = _form(group, which)
    g = gcd(*(k for k, _ in eq.factors))
    return eq, g, 72 * unit, eq.prefactor24 * group.mu, 72 * group.mu * g


@lru_cache(maxsize=None)
def basis_form(group: GroupRecord, which: str, bound: int) -> PuiseuxSeries:
    """h1 ('a') or h2 ('b') as an exact Puiseux series, valid through
    printed index `bound`; each form is built and cached on its own."""
    eq, g, step, shift, den = lattice_map(group, which)
    # the eta product through q^(g j), j the x-exponent of a_bound
    return eq.expansion(max((step * bound - shift) * g // den + 2, 2)).nth_root(3)


def basis_q_expansions(group: GroupRecord,
                       bound: int = 501) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """(h1, h2) as exact Puiseux series, valid through printed index `bound`."""
    return basis_form(group, "a", bound), basis_form(group, "b", bound)


def coefficient_sequence(group: GroupRecord, which: str, bound: int = 500) -> dict[int, Fraction]:
    """Printed coefficient sequence {n: a_n} for h1 ('a') or h2 ('b'),
    n = 1..bound in the form's own index units."""
    series, unit = basis_form(group, which, bound + 1), _form(group, which)[1]
    return {n: series.coefficient_at(Fraction(n * unit, group.mu))
            for n in range(1, bound + 1)}


def construct_basis(group: GroupRecord, order: int = 50):
    """Build (h1, h2) as the cube root of a Mobius map of the parent's
    hauptmodul times a weight-3 form (``GroupRecord.construction``) and
    check the result against the catalog eta-quotient expansions.

    Returns the constructed pair; raises if it disagrees with the catalog.
    """
    if group.construction is None:
        raise ValueError(f"{group.name} has no cube-root construction data")
    (a, b, c, d), form, h1_pow = group.construction
    qorder = order + 6
    x = group.parent.hauptmodul.expansion(qorder)
    root = ((x.scale(a) + b) / (x.scale(c) + d)).nth_root(3)
    form = form.expansion(qorder)
    built1 = root ** h1_pow * form
    built2 = root ** (3 - h1_pow) * form
    cat1, cat2 = basis_q_expansions(group, order + 1)
    bound = Fraction(order, group.mu)
    for built, cat, tag in ((built1, cat1, "h1"), (built2, cat2, "h2")):
        if not built.agrees_with(cat, through=bound):
            raise ArithmeticError(
                f"internal consistency failure: constructed {tag} of "
                f"{group.name} differs from its catalog eta quotient")
    return built1, built2


# ---------------------------------------------------------------------------
# newforms


ETA_L48 = EtaQuotient.of({4: 9, 12: 9, 2: -3, 6: -3, 8: -3, 24: -3})
assert ETA_L48.prefactor24 == 24 and all(k % 2 == 0 for k, _ in ETA_L48.factors)


class NewformRecord(namedtuple("NewformRecord", (
        "tag", "level",
        "character",            # nebentypus as Kronecker discriminants,
                                # verified against the exact expansion
        "biq",                  # (d1, d2) housing the coefficients
        "step", "pieces", "stored",
        "printed_character"),   # header as published, when it differs from
                                # the verified one
        defaults=(1, (), None, None))):
    """A newform and where its coefficients come from.

    A computed form has ``pieces`` (r, eta factors, times E6, unit) and a
    ``step``: a_n = unit * [q^k] P_r at n = r + step * k, where P_r is the
    eta product of the piece (times E6), and a_n = 0 for an n mod step that
    no piece has.  A stored form has its prime coefficients ``stored`` as
    p -> (rational part, coefficient of sqrt(d1)); its a_n follow by the
    Hecke recursion where every prime factor of n is stored or has its
    square dividing the level: a_p = 0 there, as the character is defined
    mod level / p (Li, Math. Ann. 212, 1975)."""
    __slots__ = ()

    @property
    def source(self) -> str:
        if self.stored is not None:
            return "storedTable"
        return "etaEisenstein" if any(p[2] for p in self.pieces) else "etaQuotient"


# The published header for the level-48 form reads (-3/p)(-4/p); that product
# is an even character, and a weight-3 space with even character is zero.  The
# nebentypus verified exactly from the eta expansion is (-3/p); the published
# product is kept in printed_character.
#
# L48 is ETA_L48 = q R(q^2), as every eta scale of it is even: one piece at
# step 2, R from the eta powers at the halved scales.  L432 is comp1 +
# 6 sqrt(2) comp5 + sqrt(-3) comp7 + 6 sqrt(-6) comp11 with comp_r =
# q^r P_r(q^12).  The L243/L486 tables end where shown.
NEWFORMS: dict[str, NewformRecord] = {
    "L48": NewformRecord(
        "L48", 48, (-3,), (2, -3), step=2, printed_character=(-3, -4),
        pieces=((1, tuple((k // 2, e) for k, e in ETA_L48.factors), False, (1, 0, 0, 0)),)),
    "L432": NewformRecord("L432", 432, (-4,), (2, -3), step=12, pieces=(
        (1, ((1, -1), (2, 3), (3, 1), (6, -1)), True, (1, 0, 0, 0)),
        (5, ((1, 1), (2, 3), (3, 3), (6, -1)), False, (0, 6, 0, 0)),
        (7, ((1, 1), (2, -1), (3, -1), (6, 3)), True, (0, 0, 1, 0)),
        (11, ((1, 3), (2, -1), (3, 1), (6, 3)), False, (0, 0, 0, 6)))),
    "L243": NewformRecord("L243", 243, (-3,), (-1, 3), stored={
        2: (0, 3), 5: (0, 6), 7: (11, 0), 11: (0, 12), 13: (5, 0), 17: (0, -18),
        19: (-19, 0), 23: (0, -30), 29: (0, 48), 31: (-13, 0), 37: (17, 0)}),
    "L486": NewformRecord("L486", 486, (-3,), (-2, -3), stored={
        2: (0, -1), 5: (0, 3), 7: (-7, 0), 11: (0, -3), 13: (5, 0), 17: (0, -18),
        19: (17, 0), 23: (0, -6), 29: (0, -39), 31: (59, 0), 37: (-19, 0),
        41: (0, 39), 43: (47, 0), 47: (0, -57), 53: (0, 27), 59: (0, -15),
        61: (-4, 0), 67: (-46, 0)}),
}


def _round_order(n: int) -> int:
    """The first power of two, at least 64, that covers n coefficients."""
    return 1 << max(6, (n - 1).bit_length())


# One coefficient list per newform piece, keyed (tag, r), as long as the
# longest request so far rounded up by _round_order: a shorter request reads
# a prefix, so a list is rebuilt only when a request passes the next power
# of two.
_PIECES: dict[tuple[str, int], tuple[int, ...]] = {}


def _piece_coeffs(tag: str, piece, n: int) -> tuple[int, ...]:
    """At least the first n coefficients of the piece's P_r."""
    r, factors, with_e6, _ = piece
    held = _PIECES.get((tag, r), ())
    if len(held) < n:
        length = _round_order(n)
        prod = eta_product_ints(factors, length)
        if with_e6:
            prod = _convolve(prod, eisenstein_e6_ints(length), length)
        held = _PIECES[tag, r] = tuple(prod)
    return held


def newform_an(tag: str, n: int) -> BiquadraticNumber:
    """Exact coefficient a_n of the tagged newform, as its record gives it:
    any n for a computed form, and for a stored form the n it reaches
    (KeyError for the others)."""
    rec = NEWFORMS[tag]
    d1, d2 = rec.biq
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    if rec.stored is None:
        k, r = divmod(n, rec.step)
        for piece in rec.pieces:
            if piece[0] == r:
                c = _piece_coeffs(tag, piece, k + 1)[k]
                return BiquadraticNumber.make(d1, d2, *(x * c for x in piece[3]))
        return BiquadraticNumber.make(d1, d2, 0)
    an = one = BiquadraticNumber.make(d1, d2, 1)
    for p, e in _factorize(n).items():
        if rec.level % (p * p) == 0:
            return BiquadraticNumber.make(d1, d2, 0)
        if p not in rec.stored:
            raise KeyError(
                f"coefficient unknown: {tag} stores primes {sorted(rec.stored)} only")
        ap = BiquadraticNumber.make(d1, d2, *rec.stored[p])
        # at a prime of the level the recursion has no character term
        chi = character_value(rec.character, p) if rec.level % p else 0
        prev, cur = one, ap
        for _ in range(e - 1):
            prev, cur = cur, ap * cur - chi * p * p * prev
        an = an * cur
    return an


def newform_coefficients(tag: str, prime_bound: int) -> dict[int, BiquadraticNumber]:
    """Table p -> A_p for the primes 5 <= p <= prime_bound."""
    return {p: newform_an(tag, p) for p in primes_upto(prime_bound) if p >= 5}


def _factorize(n: int) -> dict[int, int]:
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


class HeckeReport:
    __slots__ = ("tag", "prime_bound", "n_bound", "checked", "violations")

    def __init__(self, tag: str, prime_bound: int, n_bound: int, checked: int,
                 violations: list):
        self.tag, self.prime_bound, self.n_bound = tag, prime_bound, n_bound
        self.checked, self.violations = checked, violations

    @property
    def ok(self) -> bool:
        return not self.violations


def hecke_check(tag: str, prime_bound: int, n_bound: int,
                character=None) -> HeckeReport:
    """Exact verification of a_{np} = a_p a_n - chi(p) p^2 a_{n/p} for all
    good primes p <= prime_bound and n <= n_bound (weight 3).

    ``character`` overrides the catalog nebentypus (discriminant list).
    A stored-table form is refused with ValueError: its a_n exist only
    through the recursion itself, so the check could not fail."""
    rec = NEWFORMS[tag]
    if rec.stored is not None:
        raise ValueError(f"{tag} stores A_p only: its a_n come from the Hecke "
                         "recursion, so checking that recursion on them proves nothing")
    discs = rec.character if character is None else tuple(character)
    report = HeckeReport(tag, prime_bound, n_bound, 0, [])
    for p in primes_upto(prime_bound):
        if rec.level % p == 0:
            continue
        chi = character_value(discs, p)
        ap = newform_an(tag, p)
        for n in range(1, n_bound + 1):
            lhs = newform_an(tag, n * p) - ap * newform_an(tag, n)
            if n % p == 0:
                lhs = lhs + chi * p * p * newform_an(tag, n // p)
            report.checked += 1
            if not (lhs.is_rational and lhs.rational_value() == 0):
                report.violations.append((p, n))
    return report


# ---------------------------------------------------------------------------
# machine-readable export


def export_text() -> str:
    """The whole catalog as key/value record blocks, with each group's
    covering data from ``surfaces.COVERINGS``."""
    from .surfaces import COVERINGS     # only the export reads surface geometry
    lines = []
    for name, g in GROUPS.items():
        lines.append(f"[group {name}]")
        lines.append(f"parent = {g.parent.label}")
        lines.append("widths = " + ",".join(map(str, g.cusp_widths)))
        gens = "; ".join(f"{a},{b},{c},{d}" for (a, b), (c, d) in g.generators)
        lines.append(f"generators = {gens}")
        lines.append(f"mu = {g.mu}")
        lines.append(f"h1 = cbrt[{g.h1}] unit {g.h1_unit}")
        lines.append(f"h2 = cbrt[{g.h2}] unit {g.h2_unit}")
        lines.append(f"newform = {g.newform}")
        cover = COVERINGS.get(name)
        if cover is not None:
            rel = cover.relation
            lines.append(f"m(t) = {cover.covering_m}")
            lines.append(f"m_inv(x) = {cover.covering_m_inv}")
            lines.append(f"i(t) = {rel.sub_b}")
            lines.append(f"iota(r) = {cover.involution_cover}")
            lines.append(f"isogeny = degree {rel.d}, kernel {rel.kernel}, "
                         f"field {rel.field}")
            lines.extend(f"parameterization = {label}" for label, _ in cover.twists)
        lines.append("")
    for tag, rec in NEWFORMS.items():
        lines.append(f"[newform {tag}]")
        lines.append(f"level = {rec.level}")
        lines.append("character = " + " * ".join(f"({d}/p)" for d in rec.character))
        lines.append(f"source = {rec.source}")
        lines.append("")
    return "\n".join(lines)
