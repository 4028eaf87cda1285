"""Sparse bivariate polynomials over exact rationals.

Terms are stored as a map (i, j) -> coefficient for first^i * second^j,
with zero coefficients never stored.  Substitutions of the kind used by
the degree planner create high but sparse exponents, which is why the
representation is a map rather than a dense array.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..errors import InvalidInputError
from .power import _power


class BiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise InvalidInputError("negative exponent in BiPoly")
                c = Fraction(c)
                if c != 0:
                    clean[(int(i), int(j))] = c
        self.terms: dict[tuple[int, int], Fraction] = clean

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def first(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def second(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    @property
    def deg_first(self) -> int:
        if not self.terms:
            return -1
        return max(i for i, _ in self.terms)

    @property
    def deg_second(self) -> int:
        if not self.terms:
            return -1
        return max(j for _, j in self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"BiPoly({dict(items)!r})"

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly | Fraction | int") -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BiPoly":
        if k < 0:
            raise InvalidInputError("negative BiPoly power")
        return _power(self, k, BiPoly.constant(1))

    def substitute(self, first: "BiPoly", second: "BiPoly") -> "BiPoly":
        """Evaluate self at (first, second); each term's powers by
        square-and-multiply, so only the exponents present are built."""
        acc = BiPoly.zero()
        for (i, j), c in sorted(self.terms.items()):
            acc = acc + first**i * second**j * c
        return acc

    def as_sparse_second(self) -> dict[int, Fraction]:
        """A polynomial constant in the first variable, as {degree: coefficient}
        in the second."""
        if self.deg_first > 0:
            raise InvalidInputError("polynomial still involves the first variable")
        return {j: c for (_, j), c in self.terms.items()}
