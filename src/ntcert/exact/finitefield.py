"""Residue fields F_p and F_p[x]/(m) as operation objects over plain ints.

An element of F_p is an int in [0, p); one of F_p[x]/(m), m monic of degree
n, is its reduced representative as a tuple of n ints in [0, p), lowest
degree first.  Equality is int or tuple equality, and no element object is
built: the field object does the arithmetic, through _add, _sub, _mul and
_inv (underscored, as they run per element), next to zero and degree.
ellcurve's one chord-tangent law takes such an object as its field.

The residue fields of cyclic cubic fibers are F_p and F_{p^3}.  A cubic m
gets CubicExtension's straight lines: the product is reduced by
x^3 = -(m2*x^2 + m1*x + m0) in closed form, and the inverse of a is the
first column of the adjugate of its multiplication matrix (columns a, a*x,
a*x^2) over the determinant, the norm of a.  Other degrees multiply with
the general loop, which needs only a monic m (all that ModPoly.pow_mod
asks of it), and invert with ModPoly.xgcd.
"""

from __future__ import annotations

from ..errors import InvalidPrimeError
from .modpoly import ModPoly


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


class ExtensionField:
    """F_p[x]/(m) on n-tuples of ints in [0, p), for m monic of degree n >= 1,
    given as its coefficient tuple (m0, ..., m_{n-1}, 1).  A cubic m gets the
    straight-line kernels of CubicExtension."""

    __slots__ = ("p", "m", "degree", "zero", "one")

    def __new__(cls, p: int, m: tuple[int, ...]):
        return super().__new__(CubicExtension if len(m) == 4 else cls)

    def __init__(self, p: int, m: tuple[int, ...]):
        self.p, self.m, self.degree = p, m, len(m) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + self.zero[1:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtensionField) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        p, m, n = self.p, self.m, self.degree
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        for k in range(2 * n - 2, n - 1, -1):
            top = prod[k] % p
            if top:
                for i in range(n):
                    prod[k - n + i] -= top * m[i]
        return tuple(c % p for c in prod[:n])

    def _inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        p, n = self.p, self.degree
        g, u, _ = ModPoly(a, p, check_prime=False).xgcd(ModPoly(self.m, p, check_prime=False))
        if g.degree != 0:
            raise InvalidPrimeError("non-invertible element in reduced field")
        # deg u < n, since the element is reduced
        return u.coeffs + (0,) * (n - len(u.coeffs))


class CubicExtension(ExtensionField):
    """F_p[x]/(m) for m = x^3 + m2*x^2 + m1*x + m0, in straight lines."""

    __slots__ = ()

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
            raise InvalidPrimeError("non-invertible element in reduced field")
        inv = pow(det, -1, p)
        return (u0 * inv % p, u1 * inv % p, u2 * inv % p)
