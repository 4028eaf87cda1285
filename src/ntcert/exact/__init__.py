"""Exact-arithmetic substrate: rationals, polynomials, quotient rings, F_p tools."""

from .bipoly import BiPoly
from .eisenstein import EisensteinInt, proj_equal
from .finitefield import FqElem
from .modpoly import ModPoly, count_distinct_roots, irreducible_mod_p, reduce_mod_p
from .primes import divisors, is_prime, iter_primes, prime_factors, primes_up_to
from .quotient import QuotientElem, irreducible_over_q
from .rationals import format_rational, parse_rational, rational_is_square
from .unipoly import UniPoly

__all__ = [
    "BiPoly",
    "EisensteinInt",
    "FqElem",
    "ModPoly",
    "QuotientElem",
    "UniPoly",
    "count_distinct_roots",
    "divisors",
    "format_rational",
    "irreducible_mod_p",
    "irreducible_over_q",
    "is_prime",
    "iter_primes",
    "parse_rational",
    "prime_factors",
    "primes_up_to",
    "proj_equal",
    "rational_is_square",
    "reduce_mod_p",
]
