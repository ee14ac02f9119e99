"""Weight-3 cusp forms on eight noncongruence subgroups: exact q-expansions,
finite-field Frobenius traces of the attached elliptic surfaces, and
verification of the Atkin-Swinnerton-Dyer congruences against the associated
congruence newforms.
"""

from .series import (ExactRational, PuiseuxSeries, EtaQuotient, PrecisionError,
                     eta_expansion, eisenstein_e6, parse_series)
from .surfaces import (RationalFunction, WeierstrassFamily, ShortWeierstrass,
                       ModularPolynomial, long_to_short, j_invariant,
                       substitute_parameter, involution_identity_check,
                       modular_polynomial, isogeny_relation_check,
                       MissingPolynomialData, BEAUVILLE, INTER_FAMILY_RELATIONS)
from .catalog import (GROUPS, MAIN_GROUPS, NEWFORMS, GroupRecord, NewformRecord,
                      BiquadraticNumber, get_group, dim_cusp_forms,
                      cusp_regularity, derived_cusp_counts, noncongruence_test,
                      construct_basis, basis_q_expansions, coefficient_sequence,
                      newform_an, newform_coefficients, newform_expansion,
                      hecke_check, character_value, kronecker_symbol,
                      primes_upto)
from .traces import (PrimeField, QuadExtField, field_for, BadPrimeError,
                     SurfaceFamily, quadratic_character, count_points_short,
                     classify_singular_fiber, local_trace, frobenius_trace,
                     trace_pair, surface_families,
                     trace_rows, rows_to_csv, TABLE8_PRIMES)
from .congruence import (reduce_mod_p2, padic_valuation, solve_alpha_ap,
                         sqrt_mod_p2, aswd_three_term_check, detect_basis,
                         detect_bases, CongruenceReport)

__version__ = "0.1.0"
