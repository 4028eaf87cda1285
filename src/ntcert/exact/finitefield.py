"""The residue field F_p as an operation object over plain ints.

An element of F_p is an int in [0, p), equality is int equality, and no
element object is built: the field object does the arithmetic, through
_add, _sub, _mul and _inv (underscored, as they run per element), next to
zero.  ellcurve's chord-tangent law and on-curve check take such an
object as their field, with the curve's a-invariants reduced mod p, and a
point over F_p is a pair of such ints.
The non-torsion check reduces only at primes where the fiber has a root
mod p, where the residue field of the cyclic cubic field is F_p, so no
other finite field is needed.
"""

from __future__ import annotations


class PrimeField:
    """F_p on ints in [0, p)."""

    __slots__ = ("p",)
    zero = 0

    def __init__(self, p: int):
        self.p = p

    def _add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def _sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def _mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def _inv(self, a: int) -> int:
        return pow(a, -1, self.p)
