"""Roots in F_p by evaluation at every residue: the tests' root-count oracle.

It shares no code with the root counts it checks, and no subcommand loads
it.  It stays in the package only because perfbench binds its name at four
import sites (exact.modpoly, exact, cubicfield and family); once the
benchmark drops that name, it moves to tests/ and this module goes.
"""

from ..errors import InvalidInputError
from .primes import is_prime


def count_distinct_roots(coeffs, p: int) -> int:
    """The number of x in F_p with f(x) = 0 mod p, for f with these int or
    Fraction coefficients, lowest degree first.  p must be prime and divide no
    denominator, and f must not vanish mod p."""
    if not is_prime(p):
        raise InvalidInputError(f"modulus {p} is not prime")
    if any(c.denominator % p == 0 for c in coeffs):
        raise InvalidInputError(f"coefficient denominator divisible by {p}")
    cs = [c.numerator * pow(c.denominator, -1, p) % p for c in reversed(coeffs)]
    if not any(cs):
        raise InvalidInputError(f"the polynomial vanishes mod {p}")
    count = 0
    for x in range(p):
        acc = 0  # f(x) over the integers by Horner's rule, reduced once
        for c in cs:
            acc = acc * x + c
        count += acc % p == 0
    return count
