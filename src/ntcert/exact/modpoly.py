"""Polynomials over the prime field F_p and their roots in F_p.

ModPoly is the F_p instance of unipoly.DensePoly, which holds its
arithmetic, division, gcd and evaluation.  Coefficients are ints in
[0, p), lowest degree first, with no stored leading zeros.  f has
deg gcd(x^p - x, f) distinct roots in F_p, with x^p mod f from pow_mod.

This module imports unipoly, and unipoly does not import it back: the
root screens that subcommands run (UniPoly.rational_roots, cubicfield's
root counts) work on integers, and the tests check them against
count_distinct_roots.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import InvalidInputError
from .power import _power
from .primes import is_prime
from .rationals import _residues
from .unipoly import DensePoly, UniPoly


class ModPoly(DensePoly):
    __slots__ = ("p",)

    def __init__(self, coeffs: Iterable[int], p: int, *, check_prime: bool = True):
        if check_prime and not is_prime(p):
            raise InvalidInputError(f"modulus {p} is not prime")
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)
        self.p = p

    @classmethod
    def from_unipoly(cls, f: UniPoly, p: int) -> "ModPoly":
        """Reduce a rational polynomial mod p; denominators must be units mod p."""
        if not is_prime(p):
            raise InvalidInputError(f"modulus {p} is not prime")
        out = _residues(f.coeffs, p)
        if out is None:
            raise InvalidInputError(f"coefficient denominator divisible by {p}")
        return cls(out, p, check_prime=False)

    @classmethod
    def x(cls, p: int) -> "ModPoly":
        return cls((0, 1), p, check_prime=False)

    def _new(self, coeffs) -> "ModPoly":
        return ModPoly(coeffs, self.p, check_prime=False)

    def _operand(self, other) -> "ModPoly":
        if not isinstance(other, ModPoly):
            return NotImplemented
        if self.p != other.p:
            raise InvalidInputError("mixed characteristics")
        return other

    def _reduce(self, c: int) -> int:
        return c % self.p

    def _lead_inverse(self) -> int:
        return pow(self.coeffs[-1], -1, self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ModPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"ModPoly({list(self.coeffs)!r}, p={self.p})"

    def pow_mod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        """self^e reduced mod modulus (nonconstant), by square-and-multiply
        with a product-and-divmod at every step."""
        if e < 0:
            raise InvalidInputError("negative exponent")
        if modulus.degree < 1:
            raise InvalidInputError("pow_mod needs a nonconstant modulus")
        return _power(self % modulus, e, self._new((1,)), lambda a, b: a * b % modulus)


def count_distinct_roots(f: ModPoly) -> int:
    """Number of distinct roots of f in F_p, via deg gcd(x^p - x, f)."""
    if f.is_zero:
        raise InvalidInputError("zero polynomial")
    if f.degree == 0:
        return 0
    x = ModPoly.x(f.p)
    g = (x.pow_mod(f.p, f) - x % f).gcd(f)
    return g.degree


def reduce_mod_p(f: UniPoly, p: int) -> ModPoly:
    """Reduce f mod p, insisting the degree does not drop."""
    g = ModPoly.from_unipoly(f, p)
    if g.degree != f.degree:
        raise InvalidInputError(f"leading coefficient vanishes mod {p}")
    return g


__all__ = [
    "ModPoly",
    "count_distinct_roots",
    "reduce_mod_p",
]
