"""Elements of the finite field F_p[x]/(m) for a monic irreducible m over F_p.

With m = x - r this is F_p itself; with an irreducible cubic it is F_{p^3}.
An element is its reduced representative as a tuple of deg(m) ints in
[0, p), lowest degree first, so equality is tuple equality and a product is
one multiply-and-reduce loop against the monic modulus.  Operands must share
the modulus; FieldPoint (ellcurve.py) checks that before it adds two points.

The residue fields of cyclic cubic fibers are F_p and F_{p^3}, so both
degrees add and subtract in straight lines, and degree 3 has straight-line
kernels: the product is reduced by x^3 = -(m2*x^2 + m1*x + m0) in closed
form, and the inverse of a is the first column of the adjugate of its
multiplication matrix (columns a, a*x, a*x^2) divided by the determinant,
which is the norm of a.
Other degrees multiply with the general loop and invert with ModPoly.xgcd.
"""

from __future__ import annotations

from ..errors import InvalidPrimeError
from .modpoly import ModPoly


class FqElem:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: tuple[int, ...], modulus: ModPoly):
        self.coeffs = coeffs
        self.modulus = modulus

    @classmethod
    def reduce(cls, f: ModPoly, modulus: ModPoly) -> "FqElem":
        """The residue class of f modulo the monic modulus."""
        cs = (f if f.degree < modulus.degree else f % modulus).coeffs
        return cls(cs + (0,) * (modulus.degree - len(cs)), modulus)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FqElem):
            return self.coeffs == other.coeffs and self.modulus == other.modulus
        return NotImplemented

    def __repr__(self) -> str:
        return f"FqElem({list(self.coeffs)!r}, mod {self.modulus})"

    def __add__(self, other: "FqElem") -> "FqElem":
        p = self.modulus.p
        a, b = self.coeffs, other.coeffs
        if len(a) == 3:
            return FqElem(((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2]) % p), self.modulus)
        if len(a) == 1:
            return FqElem(((a[0] + b[0]) % p,), self.modulus)
        return FqElem(tuple((x + y) % p for x, y in zip(a, b)), self.modulus)

    def __neg__(self) -> "FqElem":
        p = self.modulus.p
        return FqElem(tuple(-a % p for a in self.coeffs), self.modulus)

    def __sub__(self, other: "FqElem") -> "FqElem":
        p = self.modulus.p
        a, b = self.coeffs, other.coeffs
        if len(a) == 3:
            return FqElem(((a[0] - b[0]) % p, (a[1] - b[1]) % p, (a[2] - b[2]) % p), self.modulus)
        if len(a) == 1:
            return FqElem(((a[0] - b[0]) % p,), self.modulus)
        return FqElem(tuple((x - y) % p for x, y in zip(a, b)), self.modulus)

    def __mul__(self, other: "FqElem | int") -> "FqElem":
        p = self.modulus.p
        a = self.coeffs
        if isinstance(other, int):
            return FqElem(tuple(other * c % p for c in a), self.modulus)
        b = other.coeffs
        n = len(a)
        if n == 3:
            return FqElem(_mul3(a, b, self.modulus.coeffs, p), self.modulus)
        if n == 1:
            return FqElem((a[0] * b[0] % p,), self.modulus)
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        m = self.modulus.coeffs
        for k in range(2 * n - 2, n - 1, -1):
            top = prod[k] % p
            if top:
                for i in range(n):
                    prod[k - n + i] -= top * m[i]
        return FqElem(tuple(c % p for c in prod[:n]), self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        p = self.modulus.p
        if len(self.coeffs) == 1:
            return FqElem((pow(self.coeffs[0], -1, p),), self.modulus)
        if len(self.coeffs) == 3:
            return FqElem(_inverse3(self.coeffs, self.modulus.coeffs, p), self.modulus)
        g, u, _ = ModPoly(self.coeffs, p, check_prime=False).xgcd(self.modulus)
        if g.degree != 0:
            raise InvalidPrimeError("non-invertible element in reduced field")
        # deg u < deg m, since the element is reduced
        return FqElem(u.coeffs + (0,) * (len(self.coeffs) - len(u.coeffs)), self.modulus)


def _mul3(a, b, m, p):
    """a*b mod (x^3 + m2*x^2 + m1*x + m0) over F_p, for reduced a and b."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    m0, m1, m2 = m[0], m[1], m[2]
    t4 = a2 * b2 % p
    t3 = (a1 * b2 + a2 * b1 - t4 * m2) % p
    return (
        (a0 * b0 - t3 * m0) % p,
        (a0 * b1 + a1 * b0 - t4 * m0 - t3 * m1) % p,
        (a0 * b2 + a1 * b1 + a2 * b0 - t4 * m1 - t3 * m2) % p,
    )


def _inverse3(a, m, p):
    """a^-1 mod (x^3 + m2*x^2 + m1*x + m0) over F_p, for reduced nonzero a."""
    a0, a1, a2 = a
    m0, m1, m2 = m[0], m[1], m[2]
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
