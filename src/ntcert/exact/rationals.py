"""Exact rational helpers on top of fractions.Fraction.

Fraction already maintains the invariants required here (lowest terms,
positive denominator, canonical zero), so this module only adds the
square-root decision, the one reduction of rationals mod p with the one
integer Horner's rule that evaluates the residues, and the wire format:
"num/den" decimal strings with the denominator omitted when it is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from ..errors import InvalidInputError


def rational_is_square(q: Fraction | int) -> Fraction | None:
    """Return the nonnegative square root of q if q is a rational square.

    Both numerator and denominator (in lowest terms) must be perfect
    squares.  Negative inputs are never squares; 0 maps to 0.
    """
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _residues(coeffs, p: int) -> tuple[int, ...] | None:
    """Rationals as ints mod p; None when p divides a denominator."""
    try:
        return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in coeffs)
    except ValueError:
        return None


def _horner(coeffs, r: int) -> int:
    """The integer value of the polynomial with these int coefficients at r."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def format_rational(q: Fraction | int) -> str:
    """Serialize q as "num/den", omitting "/den" when the denominator is 1.
    An int or Fraction is already in lowest terms with a positive denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of format_rational; accepts plain integers and "a/b"."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational number: {s!r}") from exc
