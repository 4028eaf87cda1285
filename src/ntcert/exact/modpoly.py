"""Polynomials over the prime field F_p and irreducibility witnesses.

Coefficients are ints in [0, p), lowest degree first, with no stored
leading zeros.  The irreducibility test is the distinct-degree (Rabin)
criterion: f of degree n is irreducible over F_p iff x^(p^n) = x mod f
and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l dividing n.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import InvalidInputError
from .power import _power
from .primes import is_prime, prime_factors
from .unipoly import Euclidean, UniPoly


class ModPoly(Euclidean):
    __slots__ = ("coeffs", "p")

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
        out = []
        for c in f.coeffs:
            if c.denominator % p == 0:
                raise InvalidInputError(f"coefficient denominator divisible by {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return cls(out, p, check_prime=False)

    @classmethod
    def x(cls, p: int) -> "ModPoly":
        return cls((0, 1), p, check_prime=False)

    def _constant(self, c: int) -> "ModPoly":
        return ModPoly((c,), self.p, check_prime=False)

    def _lead_inverse(self) -> int:
        return pow(self.coeffs[-1], -1, self.p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ModPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"ModPoly({list(self.coeffs)!r}, p={self.p})"

    def _same_field(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise InvalidInputError("mixed characteristics")

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return ModPoly(out, self.p, check_prime=False)

    def __neg__(self) -> "ModPoly":
        return ModPoly([-c for c in self.coeffs], self.p, check_prime=False)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        return self + (-other)

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ModPoly((), self.p, check_prime=False)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % self.p
        return ModPoly(out, self.p, check_prime=False)

    def __divmod__(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        inv_lb = pow(other.coeffs[-1], -1, p)
        db = other.degree
        q = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        while len(r) - 1 >= db and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < db:
                break
            k = len(r) - 1 - db
            f = r[-1] * inv_lb % p
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[i + k] = (r[i + k] - f * c) % p
        return ModPoly(q, p, check_prime=False), ModPoly(r, p, check_prime=False)

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return divmod(self, other)[1]

    def pow_mod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        """self^e reduced mod modulus (nonconstant).

        Square-and-multiply runs on FqElem, the one multiply-and-reduce loop,
        which needs only a monic modulus: a remainder mod the monic multiple
        of modulus is the same remainder.
        """
        from .finitefield import FqElem

        if e < 0:
            raise InvalidInputError("negative exponent")
        if modulus.degree < 1:
            raise InvalidInputError("pow_mod needs a nonconstant modulus")
        m = modulus.monic()
        result = _power(FqElem.reduce(self, m), e, FqElem.reduce(self._constant(1), m))
        return ModPoly(result.coeffs, self.p, check_prime=False)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc


def irreducible_mod_p(f: ModPoly) -> bool:
    """Distinct-degree irreducibility over F_p; f must be nonconstant."""
    n = f.degree
    if n < 1:
        raise InvalidInputError("irreducibility requires a nonconstant polynomial")
    p = f.p
    fm = f.monic()
    x = ModPoly.x(p)
    if x.pow_mod(p**n, fm) != x % fm:
        return False
    for ell in prime_factors(n):
        g = (x.pow_mod(p ** (n // ell), fm) - x).gcd(fm)
        if g.degree != 0:
            return False
    return True


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
    "irreducible_mod_p",
    "count_distinct_roots",
    "reduce_mod_p",
]
