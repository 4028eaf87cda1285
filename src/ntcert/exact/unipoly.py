"""Dense univariate polynomials over Q: UniPoly, the one dense polynomial class.

A polynomial is a tuple of exact rationals, lowest degree first:
c0 + c1*x + ... + cn*x^n  <->  (c0, c1, ..., cn) with cn != 0.
The zero polynomial is the empty tuple and has degree -1 (sentinel).

UniPoly holds the ring arithmetic, the one Euclidean division loop
(Cohen, GTM 138, §3.1), monic form, gcd and extended gcd.  Work mod p runs
on ints: the rational-root screen mod small primes evaluates by
rationals._horner, the one integer Horner's rule, which exact.ellcurve
shares.  A scan carries each fiber as its coefficient tuple, not as a
UniPoly, so it loads this module only when a fiber needs rational_roots
or a point needs the exact Q[theta] law.  Degrees stay
small (<= ~60 after substitutions; the triangle curve's gcds are deflated
to degree 1 first), so dense schoolbook arithmetic is the right trade-off.
The rational resultant is computed by the subresultant pseudo-remainder
sequence over cleared integer coefficients, which keeps every
intermediate value exact and auditable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable

from ..errors import InvalidInputError
from .power import _power
from .primes import divisors
from .rationals import _horner


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Fraction | int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: Fraction | int = 1) -> "UniPoly":
        if k < 0:
            raise InvalidInputError("monomial exponent must be nonnegative")
        return cls((0,) * k + (c,))

    @staticmethod
    def _operand(other) -> "UniPoly":  # ints and Fractions are constants
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other)
        return NotImplemented

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        other = self._operand(other)
        return NotImplemented if other is NotImplemented else self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                xt = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    term = xt
                elif c == -1:
                    term = f"-{xt}"
                else:
                    term = f"{c}*{xt}"
            parts.append(term)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "UniPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "UniPoly":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["UniPoly", "UniPoly"]:
        """(q, r) with self = q*other + r and deg r < deg other.

        Walks the quotient's degrees from the top; a zero quotient
        coefficient and the divisor's zero coefficients cost nothing.  The
        divisor's leading term is never subtracted: the remainder keeps only
        the coefficients below it.
        """
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        inv = 1 / other.leading
        db = other.degree
        terms = [(i, c) for i, c in enumerate(other.coeffs[:db]) if c]
        r = list(self.coeffs)
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            f = r[k + db] * inv
            if f:
                q[k] = f
                for i, c in terms:
                    r[i + k] -= f * c
        return UniPoly(q), UniPoly(r[:db])

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise InvalidInputError("negative polynomial power")
        return _power(self, k, UniPoly.one())

    def evaluate(self, x):
        """Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * UniPoly.constant(1 / self.leading)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd (monic zero convention: gcd(0,0) = 0)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly", "UniPoly"]:
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        r0, r1 = self, other
        u0, u1 = UniPoly.one(), UniPoly.zero()
        v0, v1 = u1, u0
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        if r0.is_zero:
            return r0, u0, v0
        scale = UniPoly.constant(1 / r0.leading)
        return r0 * scale, u0 * scale, v0 * scale

    # -- composition / calculus ---------------------------------------------

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def integer_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Factor self = unit * P with P a primitive integer polynomial.

        The unit is a positive rational; P keeps the sign of self.
        """
        if self.is_zero:
            return Fraction(0), ()
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // _int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = _int_gcd(g, v)
        return Fraction(g, den), tuple(v // g for v in ints)

    # -- resultant / discriminant -------------------------------------------

    def resultant(self, other: "UniPoly") -> Fraction:
        """Res(self, other) by the subresultant pseudo-remainder sequence.

        Coefficients are cleared to primitive integer polynomials first, so
        the main loop runs entirely in integer arithmetic.
        """
        f, g = self, other
        if f.is_zero or g.is_zero:
            non = g if f.is_zero else f
            if not non.is_zero and non.degree == 0:
                return Fraction(1)
            return Fraction(0)
        if f.degree == 0 and g.degree == 0:
            return Fraction(1)
        if f.degree == 0:
            return f.leading ** g.degree
        if g.degree == 0:
            return g.leading ** f.degree
        uf, F = f.integer_primitive()
        ug, G = g.integer_primitive()
        return uf ** g.degree * ug ** f.degree * _subresultant_res(list(F), list(G))

    def discriminant(self) -> Fraction:
        """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f);  requires deg >= 2."""
        n = self.degree
        if n < 2:
            raise InvalidInputError("discriminant requires degree >= 2")
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * self.resultant(self.derivative()) / self.leading

    # -- rational roots -------------------------------------------------------

    def rational_roots(self) -> set[Fraction]:
        """All rational roots, by the rational-root theorem on the cleared form.

        A candidate p/q in lowest terms must have q dividing the leading
        coefficient, so it survives reduction at any prime r not dividing
        that coefficient: if some such r leaves the reduction rootless (no
        value 0 at 0, ..., r - 1 mod r), there is no rational root and the
        divisor enumeration is skipped.
        """
        if self.is_zero:
            raise InvalidInputError("zero polynomial has every rational root")
        _, ints = self.integer_primitive()
        roots: set[Fraction] = set()
        k = 0
        while ints[k] == 0:
            k += 1
        if k > 0:
            roots.add(Fraction(0))
            ints = ints[k:]
        if len(ints) == 1:
            return roots
        a0, an = ints[0], ints[-1]
        for r in (5, 7, 11, 13, 17, 19, 23, 29):
            if an % r and all(_horner(ints, x) % r for x in range(r)):
                return roots
        n = len(ints) - 1
        for p in divisors(a0):
            for q in divisors(an):
                if _int_gcd(p, q) != 1:
                    continue
                for num in (p, -p):
                    # integer Horner for q^n * f(num/q)
                    value = ints[n]
                    qpow = 1
                    for i in range(n - 1, -1, -1):
                        qpow *= q
                        value = value * num + ints[i] * qpow
                    if value == 0:
                        roots.add(Fraction(num, q))
        return roots


def _trim(r: list[int]) -> None:
    while r and r[-1] == 0:
        r.pop()


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b, over Z."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    steps = da - db + 1
    _trim(r)
    while len(r) - 1 >= db and r:
        s = r[-1]
        k = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[i + k] -= s * bc
        steps -= 1
        _trim(r)
    if steps > 0:
        scale = lb**steps
        r = [c * scale for c in r]
    return r


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("non-exact division in subresultant sequence")
    return q


def _subresultant_res(a: list[int], b: list[int]) -> int:
    """Resultant of two nonzero integer polynomials (deg >= 1 somewhere)."""
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
        a, b = b, a
    g = h = 1
    while len(b) - 1 > 0:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        denom = g * h**delta
        a, b = b, [_exact_div(c, denom) for c in r]
        g = a[-1]
        if delta > 0:
            h = _exact_div(g**delta, h ** (delta - 1))
    return s * _exact_div(b[0] ** (len(a) - 1), h ** (len(a) - 2)) if len(a) - 1 > 0 else s

