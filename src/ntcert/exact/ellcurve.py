"""Elliptic curves over Q: the group law, reduction mod p and non-torsion.

A point is a coordinate pair (x, y), and None is the point at infinity O.
One chord-tangent law serves every field: it takes the field as an
operation object, QuotientField for Q[x]/(f) on UniPoly representatives or
finitefield's F_p on ints, and the curve's a-invariants in that field, so
neither kind of product builds an element object.
Reduction mod p and nontorsion_certificate read a point over Q[x]/(m) as
coefficient tuples (x, y, m), lowest degree first, so a scan reduces its
points without building a polynomial.  exact.unipoly and exact.quotient
load on demand, only where _exact_point builds a Q[x]/(m) point for the
exact fallback of nontorsion_certificate.  Only ntcert.errors and
ntcert.exact are imported, so a certificate checker can use this layer
without the family or the scan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Iterable

from ..errors import InvalidInputError, SingularCurveError, VerificationError
from .finitefield import PrimeField
from .power import _power
from .primes import is_prime
from .rationals import _horner, _residues

if TYPE_CHECKING:
    from .quotient import QuotientField


class WeierstrassCurve:
    """A nonsingular Weierstrass model with the standard derived quantities."""

    __slots__ = (
        "a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8", "c4", "c6", "disc", "j", "_hash",
    )

    def __init__(self, a1, a2, a3, a4, a6):
        self.a1 = Fraction(a1)
        self.a2 = Fraction(a2)
        self.a3 = Fraction(a3)
        self.a4 = Fraction(a4)
        self.a6 = Fraction(a6)
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        self.b2 = a1**2 + 4 * a2
        self.b4 = 2 * a4 + a1 * a3
        self.b6 = a3**2 + 4 * a6
        self.b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
        self.c4 = self.b2**2 - 24 * self.b4
        self.c6 = -self.b2**3 + 36 * self.b2 * self.b4 - 216 * self.b6
        b2, b4, b6 = self.b2, self.b4, self.b6
        self.disc = -(b2**2) * self.b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
        if self.disc == 0:
            raise SingularCurveError("discriminant vanishes")
        if 1728 * self.disc != self.c4**3 - self.c6**2:
            raise VerificationError("1728*disc differs from c4^3 - c6^2")
        self.j = self.c4**3 / self.disc
        # the per-prime caches below look a curve up for every reduced point
        self._hash = hash(self.a_invariants)

    @property
    def a_invariants(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeierstrassCurve):
            return self.a_invariants == other.a_invariants
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"WeierstrassCurve{self.a_invariants}"


# -- points and the group law --------------------------------------------------


def _chord_tangent(F, a, P, Q):
    """P + Q on the curve with a-invariants a, all in the field F; None is the identity.

    Points are coordinate pairs.  F does the arithmetic (_add, _sub, _mul,
    _inv and zero) and elements compare with ==, so the same law runs over
    Q[x]/(f) (QuotientField) and the residue fields of finitefield.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    add, sub, mul = F._add, F._sub, F._mul
    a1, a2, a3, a4, a6 = a
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        # Q is P or -P; the sum of the y's with a1*x1 + a3 is 0 exactly at -P
        den = add(add(y1, y2), add(mul(a1, x1), a3))
        if den == F.zero:
            return None
        # 3*x1^2 + 2*a2*x1 + a4 - a1*y1
        num = sub(add(mul(x1, add(add(add(x1, x1), x1), add(a2, a2))), a4), mul(a1, y1))
    else:
        den, num = sub(x2, x1), sub(y2, y1)
    lam = mul(num, F._inv(den))
    x3 = sub(sub(sub(mul(lam, add(lam, a1)), a2), x1), x2)
    y3 = sub(sub(mul(lam, sub(x1, x3)), y1), add(mul(a1, x3), a3))
    return x3, y3


def _on_curve(F, a, P) -> bool:
    """Whether the affine point P = (x, y) over F satisfies the equation with a-invariants a."""
    add, mul = F._add, F._mul
    a1, a2, a3, a4, a6 = a
    x, y = P
    return mul(y, add(add(y, mul(a1, x)), a3)) == add(mul(x, add(mul(x, add(x, a2)), a4)), a6)


def _multiple(F, a, P, k: int):
    """k*P for k >= 0 by square-and-multiply on the chord-tangent law; None is O."""
    return _power(P, k, None, partial(_chord_tangent, F, a))


# -- reduction mod p -------------------------------------------------------------


@lru_cache(maxsize=1024)  # the torsion primes and the non-torsion check ask for the same few per fiber
def is_good_prime(curve: WeierstrassCurve, p: int) -> bool:
    """Good reduction for this model: p > 3, prime, unit denominators, p ∤ num(disc)."""
    if p <= 3 or not is_prime(p):
        return False
    if any(c.denominator % p == 0 for c in curve.a_invariants):
        return False
    return curve.disc.numerator % p != 0


@lru_cache(maxsize=1024)  # a scan asks for the same few (curve, p) for every fiber
def count_points_mod_p(curve: WeierstrassCurve, p: int) -> int:
    """|E(F_p)| by summing the quadratic character of the completed square.

    For p > 3 the substitution 2y + a1*x + a3 -> Y turns the equation into
    Y^2 = 4x^3 + b2*x^2 + 2*b4*x + b6, so each x contributes 1 + chi(g(x)).
    """
    if not is_good_prime(curve, p):
        raise InvalidInputError(f"{p} is not a prime of good reduction")

    b2, b4, b6 = _residues((curve.b2, curve.b4, curve.b6), p)
    total = p + 1
    half = (p - 1) // 2
    for x in range(p):
        g = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % p
        if g == 0:
            continue
        total += 1 if pow(g, half, p) == 1 else -1
    return total


def trace_over_extension(a_p: int, p: int, k: int) -> int:
    """Frobenius trace over F_{p^k} via a_k = a_p*a_{k-1} - p*a_{k-2}, a_0 = 2."""
    if k < 0:
        raise InvalidInputError("extension degree must be nonnegative")
    prev, cur = 2, a_p
    for _ in range(k):
        prev, cur = cur, a_p * cur - p * prev
    return prev


def _group_order(curve: WeierstrassCurve, p: int, d: int) -> int:
    """|E(F_{p^d})| at a good prime p, from the Frobenius trace a_p = p + 1 - |E(F_p)|."""
    a_p = p + 1 - count_points_mod_p(curve, p)
    return p**d + 1 - trace_over_extension(a_p, p, d)


@lru_cache(maxsize=1024)
def _invariants_mod_p(curve: WeierstrassCurve, p: int) -> tuple[int, ...]:
    """The curve's a-invariants reduced mod a good prime p."""
    return _residues(curve.a_invariants, p)


def _reduce_point(curve: WeierstrassCurve, point: tuple, p: int) -> tuple[tuple, int] | None:
    """Reduce the point (x, y) over Q[z]/(m), given as the coefficient tuples
    (x, y, m), to F_p at the first root of m mod p; None when p is unusable.

    Returns ((xbar, ybar), |E(F_p)|) with int coordinates; the root is found
    by Horner's rule on ints.  Any root gives a genuine residue map, so
    ramified primes are fine.  Bad reduction, a non-p-integral coordinate
    or modulus, and a modulus with no root mod p skip.
    """
    if not is_good_prime(curve, p):
        return None
    x, y, m = (_residues(coeffs, p) for coeffs in point)
    if x is None or y is None or m is None:
        return None
    root = next((r for r in range(p) if _horner(m, r) % p == 0), None)
    if root is None:
        return None
    Pbar = _horner(x, root) % p, _horner(y, root) % p
    if not _on_curve(PrimeField(p), _invariants_mod_p(curve, p), Pbar):
        raise VerificationError("reduction left the curve")
    return Pbar, count_points_mod_p(curve, p)


def _exact_point(curve: WeierstrassCurve, point: tuple) -> tuple[QuotientField, tuple, tuple]:
    """(F, a, P): the field Q[z]/(m), the curve's a-invariants in it and the
    point with the coefficient tuples (x, y, m), for the exact law; the
    caller has put it on the curve."""
    from .quotient import QuotientField
    from .unipoly import UniPoly

    x, y, m = (UniPoly(coeffs) for coeffs in point)
    return QuotientField(m), tuple(map(UniPoly.constant, curve.a_invariants)), (x % m, y % m)


# -- non-torsion -------------------------------------------------------------------


# nontorsion_certificate tries at most this many primes before the exact fallback.
_MAX_PRIMES = 12


def nontorsion_certificate(
    curve: WeierstrassCurve, point: tuple | None, bound: int, primes: Iterable[int],
) -> bool:
    """True iff P has infinite order, so that k*P != O for 1 <= k <= bound.

    P is the point over Q[z]/(m) given as the coefficient tuples (x, y, m),
    or O as None; only the exact fallback builds it (_exact_point).

    Precondition, which this function cannot check: bound is a multiple of
    every torsion order of E(K).  family.torsion_bound's gcd of reduced
    group orders meets it, for counted and explicit torsion primes alike:
    torsion injects into each good, unramified reduction (Silverman, The
    Arithmetic of Elliptic Curves, VII.3.1).  So bound*P != O means P has
    infinite order, hence k*P != O for every k <= bound, which is the
    certificate's nontorsion_checked_to; and a torsion P gives bound*P = O.

    Reduction at a good prime is a homomorphism (VII.2.1), so bound*Pbar != O
    at one prime proves bound*P != O.  The primes, ascending (such as those
    where the fiber splits), are tried from the first with
    p + 1 - 2*sqrt(p) > bound, where |E(F_p)| > bound by Hasse, and at most
    twelve at which P reduces to F_p.  At the first, |E(F_p)|*Pbar = O
    checks the count.  If bound*Pbar = O at every one, the single exact
    product bound*P over Q[z]/(m) decides.
    """
    if bound < 1:
        raise InvalidInputError("bound must be >= 1")
    if point is None:
        return False
    used = 0
    for p in primes:
        if used >= _MAX_PRIMES:
            break
        if p + 1 <= bound or (p + 1 - bound) ** 2 <= 4 * p:
            continue  # below the Hasse start
        reduced = _reduce_point(curve, point, p)
        if reduced is None:
            continue
        Pbar, group_order = reduced
        F, a = PrimeField(p), _invariants_mod_p(curve, p)
        if not used and _multiple(F, a, Pbar, group_order) is not None:
            raise VerificationError("the reduced group order does not annihilate the point")
        if _multiple(F, a, Pbar, bound) is not None:
            return True
        used += 1
    return _multiple(*_exact_point(curve, point), bound) is not None
