"""Weight-3 cusp forms on eight noncongruence subgroups: exact q-expansions,
finite-field Frobenius traces of the attached elliptic surfaces, and
verification of the Atkin-Swinnerton-Dyer congruences against the associated
congruence newforms.

The names below resolve on first use: ``import noncong`` loads no
submodule, and ``noncong.<name>`` imports only the module that defines it
(``surfaces`` and ``traces`` are not loaded for a name of ``catalog``).  A
resolved name is looked up again on every access and never stored in the
package namespace, so a rebinding in the defining module shows here too.
"""

import importlib
import sys

_EXPORTS = {
    "series": ("PuiseuxSeries", "EtaQuotient", "PrecisionError", "eta_expansion",
               "eisenstein_e6", "parse_series"),
    "surfaces": ("RationalFunction", "WeierstrassFamily", "ShortWeierstrass",
                 "ModularPolynomial", "long_to_short", "j_invariant",
                 "substitute_parameter", "involution_identity_check",
                 "modular_polynomial", "isogeny_relation_check",
                 "MissingPolynomialData", "BEAUVILLE", "INTER_FAMILY_RELATIONS",
                 "COVERINGS"),
    "catalog": ("GROUPS", "MAIN_GROUPS", "NEWFORMS", "GroupRecord", "NewformRecord",
                "BiquadraticNumber", "get_group", "dim_cusp_forms",
                "cusp_regularity", "derived_cusp_counts", "noncongruence_test",
                "construct_basis", "basis_q_expansions", "coefficient_sequence",
                "newform_an", "newform_coefficients", "hecke_check",
                "character_value", "kronecker_symbol", "primes_upto"),
    "traces": ("PrimeField", "QuadExtField", "field_for", "BadPrimeError",
               "SurfaceFamily", "quadratic_character", "count_points_short",
               "classify_singular_fiber", "local_trace", "frobenius_trace",
               "trace_pair", "surface_families", "trace_rows", "rows_to_csv",
               "TABLE8_PRIMES"),
    "congruence": ("reduce_mod_p2", "padic_valuation", "solve_alpha_ap",
                   "sqrt_mod_p2", "aswd_three_term_check", "detect_basis",
                   "detect_bases", "CongruenceReport"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: a loop may resolve one name thousands of times
    return getattr(sys.modules.get(module) or importlib.import_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
