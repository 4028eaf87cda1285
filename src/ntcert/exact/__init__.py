"""Exact-arithmetic substrate: rationals, polynomials, quotient rings, F_p tools.

The names below are re-exported lazily (PEP 562): each submodule is
imported the first time one of its names is read.
"""

from importlib import import_module

_EXPORTS = {
    "bipoly": ("BiPoly",),
    "modpoly": ("count_distinct_roots",),
    "primes": ("divisors", "is_prime", "iter_primes", "primes_up_to"),
    "quotient": ("QuotientElem", "irreducible_over_q"),
    "rationals": ("format_rational", "parse_rational", "rational_is_square"),
    "unipoly": ("UniPoly",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
