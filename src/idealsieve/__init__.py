"""Computational laboratory for prime-ideal constellations in monogenic
number fields: exact ideal arithmetic, truncated divisor-sum sieve
weights, correlation asymptotics, and desk-scale constellation search."""

import sys
from operator import attrgetter

from .constellation import (AlphaScanResult, Certificate, ConstellationSpec,
                            alpha_scan, search_constellation,
                            verify_certificate, verify_line)
from .correlation import (CorrelationReport, LinearFormSystem, F_euler,
                          auto_correlation_check, cross_correlation_sum,
                          hypergraph_conditions_report, local_factor_omega,
                          relative_density, singular_series_direct,
                          singular_series_main_term, tau_factor, tau_weight)
from .errors import (BudgetExceededError, IdealSieveError,
                     ReduciblePolynomialError, UnsupportedFieldError)
from .ideals import (FractionalIdeal, IdealFactorization, PrimeIdeal,
                     TruncatedClass, class_equivalent, count_ideals,
                     enumerate_prime_ideals, euler_phi, factor_ideal,
                     factor_rational_prime, is_prime_element, mobius,
                     prime_divisors, principal_generator, residue_degrees,
                     zeta_residue)
from .lattice import (Parallelotope, admissible_modulus, ball_elements,
                      fundamental_domain_reduce, in_scaled_domain,
                      points_in_parallelotope)
from .numberfield import (FieldElement, NumberField, field_by_name,
                          make_field, minkowski_norm)
from .sieve import (BumpFunction, SieveConfig, c_phi, lambda_R, lift_nu,
                    nu_weight)

__version__ = "0.1.0"

# Every cache that outlives a call: an lru_cache, or ideals' FIFO dict
CACHES = ("ideals.primes_above", "ideals._prime_ideal_lattice",
          "ideals.residue_rows", "ideals._FACTOR_CACHE",
          "correlation._omega_cached_key", "sieve._lambda_cached",
          "lattice._ball_form", "numberfield._field")


def clear_caches():
    """Empty every cache in CACHES."""
    for cache in attrgetter(*CACHES)(sys.modules[__name__]):
        (cache.clear if isinstance(cache, dict) else cache.cache_clear)()


def cache_info():
    """{name in CACHES: (current size, bound)}."""
    caches = attrgetter(*CACHES)(sys.modules[__name__])
    return {name: (len(c), ideals.FACTOR_CACHE_SIZE) if isinstance(c, dict)
            else (c.cache_info().currsize, c.cache_info().maxsize)
            for name, c in zip(CACHES, caches)}
