"""Quotient-ring arithmetic Q[x]/(m) and the irreducibility-over-Q policy.

Elements carry their modulus by value; arithmetic between elements with
different moduli is a hard error rather than a coercion, which prevents
silent cross-field bugs in certificates.

Irreducibility over Q is decided soundly, never guessed:
  degree <= 1  ->  irreducible;
  degree 2, 3  ->  irreducible iff no rational root;
  degree >= 4  ->  None ("unknown"), never a guess either way, so
                   QuotientElem accepts the modulus and refuses only one
                   known to be reducible.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from ..errors import InvalidInputError
from .power import _power
from .primes import primes_up_to  # not called here; perfbench's tests expect it bound in quotient
from .unipoly import UniPoly


@lru_cache(maxsize=None)
def _irreducible_over_q_cached(coeffs: tuple[Fraction, ...]) -> bool | None:
    f = UniPoly(coeffs)
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if n <= 3:
        return not f.rational_roots()
    return None


def irreducible_over_q(f: UniPoly) -> bool | None:
    """True / False when decided (degree <= 3), None above that."""
    return _irreducible_over_q_cached(f.coeffs)


class QuotientElem:
    """An element of Q[x]/(modulus), stored as its reduced representative."""

    __slots__ = ("rep", "modulus")

    def __init__(self, rep: UniPoly, modulus: UniPoly, *, validate: bool = True):
        if not isinstance(rep, UniPoly) or not isinstance(modulus, UniPoly):
            raise InvalidInputError("QuotientElem expects UniPoly arguments")
        if modulus.degree < 1 or not modulus.is_monic:
            raise InvalidInputError("modulus must be monic of degree >= 1")
        if validate and irreducible_over_q(modulus) is False:
            raise InvalidInputError(f"modulus {modulus} is reducible over Q")
        self.modulus = modulus
        self.rep = rep if rep.degree < modulus.degree else rep % modulus

    @classmethod
    def constant(cls, c: Fraction | int, modulus: UniPoly) -> "QuotientElem":
        return cls(UniPoly.constant(c), modulus)

    @classmethod
    def generator(cls, modulus: UniPoly) -> "QuotientElem":
        """The residue class of x."""
        return cls(UniPoly.x(), modulus)

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def _check(self, other: "QuotientElem") -> None:
        if self.modulus != other.modulus:
            raise InvalidInputError("elements live in different quotient rings")

    def _wrap(self, rep: UniPoly) -> "QuotientElem":
        return QuotientElem(rep, self.modulus, validate=False)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuotientElem):
            return self.modulus == other.modulus and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rep, self.modulus))

    def __repr__(self) -> str:
        return f"QuotientElem({self.rep}, mod {self.modulus})"

    def _coerce(self, other) -> "QuotientElem | None":
        if isinstance(other, QuotientElem):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self._wrap(UniPoly.constant(other))
        return None

    def __add__(self, other) -> "QuotientElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.rep + o.rep)

    def __neg__(self) -> "QuotientElem":
        return self._wrap(-self.rep)

    def __sub__(self, other) -> "QuotientElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.rep - o.rep)

    def __mul__(self, other) -> "QuotientElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.rep * o.rep)

    def inverse(self) -> "QuotientElem":
        """Multiplicative inverse via extended gcd with the modulus."""
        if self.rep.is_zero:
            raise ZeroDivisionError("inverse of zero in quotient ring")
        g, u, _ = self.rep.xgcd(self.modulus)
        if g.degree != 0:
            raise InvalidInputError(
                f"gcd({self.rep}, {self.modulus}) = {g}; modulus is reducible"
            )
        return self._wrap(u)

    def __truediv__(self, other) -> "QuotientElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int) -> "QuotientElem":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self._wrap(UniPoly.one()))


class QuotientField:
    """Q[x]/(modulus) as an operation object over QuotientElem, with the
    operations of finitefield's residue fields, for ellcurve's one law."""

    __slots__ = ("modulus", "zero")
    _add, _sub, _mul = operator.add, operator.sub, operator.mul
    _inv = operator.methodcaller("inverse")

    def __init__(self, modulus: UniPoly):
        self.modulus = modulus
        self.zero = self._constant(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuotientField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def _constant(self, c: Fraction | int) -> QuotientElem:
        return QuotientElem(UniPoly.constant(c), self.modulus, validate=False)
