"""Residue fields F_p and F_{p^3} as operation objects over plain ints.

The residue field of a cyclic cubic field at any prime is F_p or F_{p^3}
(Marcus, Number Fields, ch. 3), so these two are all the non-torsion walk
needs.  An element of F_p is an int in [0, p); one of F_{p^3} = F_p[x]/(m),
m an irreducible monic cubic, is its reduced representative as a triple of
ints in [0, p), lowest degree first.  Equality is int or tuple equality,
and no element object is built: the field object does the arithmetic,
through _add, _sub, _mul and _inv (underscored, as they run per element),
next to zero and degree.  ellcurve's one chord-tangent law takes such an
object as its field.

CubicExtension works in straight lines: the product is reduced by
x^3 = -(m2*x^2 + m1*x + m0) in closed form, and the inverse of a is the
first column of the adjugate of its multiplication matrix (columns a, a*x,
a*x^2) over the determinant, the norm of a.
"""

from __future__ import annotations

from ..errors import InvalidInputError


class PrimeField:
    """F_p on ints in [0, p)."""

    __slots__ = ("p",)
    degree, zero = 1, 0

    def __init__(self, p: int):
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def _add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def _sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def _mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def _inv(self, a: int) -> int:
        return pow(a, -1, self.p)


class CubicExtension:
    """F_{p^3} = F_p[x]/(m) on int triples, for m = x^3 + m2*x^2 + m1*x + m0
    irreducible mod p, given as (m0, m1, m2, 1); in straight lines."""

    __slots__ = ("p", "m")
    degree, zero, one = 3, (0, 0, 0), (1, 0, 0)

    def __init__(self, p: int, m: tuple[int, int, int, int]):
        self.p, self.m = p, m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CubicExtension) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def _add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2]) % p)

    def _sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p, (a[2] - b[2]) % p)

    def _mul(self, a, b):
        """a*b, reduced by x^3 = -(m2*x^2 + m1*x + m0) in closed form."""
        p = self.p
        m0, m1, m2, _ = self.m
        a0, a1, a2 = a
        b0, b1, b2 = b
        t4 = a2 * b2 % p
        t3 = (a1 * b2 + a2 * b1 - t4 * m2) % p
        return (
            (a0 * b0 - t3 * m0) % p,
            (a0 * b1 + a1 * b0 - t4 * m0 - t3 * m1) % p,
            (a0 * b2 + a1 * b1 + a2 * b0 - t4 * m1 - t3 * m2) % p,
        )

    def _inv(self, a):
        """The first column of the adjugate of a's multiplication matrix over its norm."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        p = self.p
        m0, m1, m2, _ = self.m
        a0, a1, a2 = a
        # Columns of the multiplication matrix: a, b = a*x, c = a*x^2.
        b0, b1, b2 = -a2 * m0 % p, (a0 - a2 * m1) % p, (a1 - a2 * m2) % p
        c0, c1, c2 = -b2 * m0, b0 - b2 * m1, b1 - b2 * m2
        # First column of the adjugate; the determinant expands along row 0.
        u0 = b1 * c2 - c1 * b2
        u1 = a2 * c1 - a1 * c2
        u2 = a1 * b2 - b1 * a2
        det = (a0 * u0 + b0 * u1 + c0 * u2) % p
        if not det:
            raise InvalidInputError("non-invertible element in reduced field")
        inv = pow(det, -1, p)
        return (u0 * inv % p, u1 * inv % p, u2 * inv % p)
