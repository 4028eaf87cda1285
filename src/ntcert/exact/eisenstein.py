"""Arithmetic in Q(rho) for a primitive cube root of unity rho.

Numbers are a + b*rho with rational a, b; products are rewritten with
rho^2 = -1 - rho.  Projective equality of coordinate triples is decided
by vanishing of the 2x2 cross minors, which needs no division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .power import _power


class EisensteinInt:
    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def rho(cls) -> "EisensteinInt":
        return cls(0, 1)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EisensteinInt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"

    def _coerce(self, other) -> "EisensteinInt | None":
        if isinstance(other, EisensteinInt):
            return other
        if isinstance(other, (int, Fraction)):
            return EisensteinInt(other, 0)
        return None

    def __add__(self, other) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b rho)(c + d rho) = ac + (ad + bc) rho + bd rho^2,  rho^2 = -1 - rho
        ac = self.a * o.a
        bd = self.b * o.b
        cross = self.a * o.b + self.b * o.a
        return EisensteinInt(ac - bd, cross - bd)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "EisensteinInt":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, EisensteinInt(1, 0))

    def conjugate(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a**2 - self.a * self.b + self.b**2

    def inverse(self) -> "EisensteinInt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(rho)")
        conj = self.conjugate()
        return EisensteinInt(conj.a / n, conj.b / n)


def proj_equal(
    P: Sequence[EisensteinInt], Q: Sequence[EisensteinInt]
) -> bool:
    """Projective equality of nonzero coordinate triples over Q(rho)."""
    if len(P) != 3 or len(Q) != 3:
        raise ValueError("projective points need exactly three coordinates")
    if all(c.is_zero for c in P) or all(c.is_zero for c in Q):
        raise ValueError("the zero triple is not a projective point")
    for i in range(3):
        for j in range(i + 1, 3):
            if not (P[i] * Q[j] - P[j] * Q[i]).is_zero:
                return False
    return True
