"""Elliptic curves over Q: the group law, reduction mod p and non-torsion.

One chord-tangent law serves every field: it takes the field as an
operation object, QuotientField for Q[x]/(f) (QuotientElem coordinates) or
finitefield's F_p on ints, so the non-torsion walk builds no element
objects.  Only ntcert.errors and ntcert.exact are imported, so a
certificate checker can use this layer without the family or the scan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm as _int_lcm
from typing import Iterable

from ..errors import InvalidInputError, SingularCurveError, VerificationError
from .finitefield import PrimeField
from .power import _power
from .primes import is_prime
from .quotient import QuotientElem, QuotientField
from .rationals import _residues
from .unipoly import UniPoly, _horner


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


class FieldPoint:
    """A point of the curve with coordinates in a field K.

    ``field`` is K as an operation object: QuotientField for Q[x]/(modulus)
    with QuotientElem coordinates (rational points use the modulus x), or
    finitefield's F_p with int coordinates.  ``a`` holds the curve's
    a-invariants as constants of K; given as None, they are built from the
    field on first use, so a point that is only reduced mod p never builds
    them.  The point at infinity has x = y = None.
    """

    __slots__ = ("curve", "field", "_a", "x", "y")

    def __init__(self, curve, field, a, x=None, y=None, *, check=True):
        self.curve, self.field, self._a, self.x, self.y = curve, field, a, x, y
        if x is not None and check and not self._on_curve():
            raise InvalidInputError("point does not satisfy the curve equation")

    @property
    def a(self) -> tuple:
        if self._a is None:
            self._a = tuple(self.field._constant(c) for c in self.curve.a_invariants)
        return self._a

    @classmethod
    def affine(
        cls, curve: WeierstrassCurve, modulus: UniPoly, x: QuotientElem, y: QuotientElem,
        *, check: bool = True,
    ) -> "FieldPoint":
        return cls(curve, QuotientField(modulus), None, x, y, check=check)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _coords(self):
        return None if self.x is None else (self.x, self.y)

    def _sibling(self, coords) -> "FieldPoint":
        """The point with these coordinates (None: infinity) on the same curve over K."""
        x, y = coords or (None, None)
        return FieldPoint(self.curve, self.field, self._a, x, y, check=False)

    def _on_curve(self) -> bool:
        F, (a1, a2, a3, a4, a6), x, y = self.field, self.a, self.x, self.y
        add, mul = F._add, F._mul
        return mul(y, add(add(y, mul(a1, x)), a3)) == add(mul(x, add(mul(x, add(x, a2)), a4)), a6)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPoint):
            return NotImplemented
        if self.curve != other.curve or self.field != other.field:
            return False
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve, self.field, self.x, self.y))

    def __repr__(self) -> str:
        return "FieldPoint(infinity)" if self.is_infinity else f"FieldPoint(x={self.x}, y={self.y})"

    def __neg__(self) -> "FieldPoint":
        if self.is_infinity:
            return self
        F, (a1, _, a3, _, _), x, y = self.field, self.a, self.x, self.y
        return self._sibling((x, F._sub(F.zero, F._add(F._add(y, F._mul(a1, x)), a3))))

    def __add__(self, other: "FieldPoint") -> "FieldPoint":
        if not isinstance(other, FieldPoint):
            return NotImplemented
        if self.curve != other.curve or self.field != other.field:
            raise InvalidInputError("points on different curves or fields")
        return self._sibling(_chord_tangent(self.field, self.a, self._coords(), other._coords()))

    def scalar_mul(self, k: int) -> "FieldPoint":
        if k < 0:
            return (-self).scalar_mul(-k)
        add = partial(_chord_tangent, self.field, self.a)
        return self._sibling(_power(self._coords(), k, None, add))


# -- reduction mod p -------------------------------------------------------------


@lru_cache(maxsize=1024)  # the torsion primes and the walk ask for the same few per fiber
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


def reduce_point_mod_p(P: FieldPoint, p: int) -> tuple[FieldPoint, int] | None:
    """Reduce P to F_p at the first root mod p of its modulus; None when p is unusable.

    Returns (Pbar, |E(F_p)|), Pbar with int coordinates; the root is found
    by Horner's rule on ints.  Any root gives a genuine residue map, so
    ramified primes are fine.  Bad reduction, a non-p-integral coordinate
    or modulus, and a modulus with no root mod p skip.
    """
    curve = P.curve
    if P.is_infinity or not is_good_prime(curve, p):
        return None
    x, y, m = (_residues(f.coeffs, p) for f in (P.x.rep, P.y.rep, P.field.modulus))
    if x is None or y is None or m is None:
        return None
    root = next((r for r in range(p) if _horner(m, r) % p == 0), None)
    if root is None:
        return None
    x, y = _horner(x, root) % p, _horner(y, root) % p
    Pbar = FieldPoint(curve, PrimeField(p), _invariants_mod_p(curve, p), x, y, check=False)
    if not Pbar._on_curve():
        raise VerificationError("reduction left the curve")
    return Pbar, count_points_mod_p(curve, p)


# -- non-torsion -------------------------------------------------------------------


def _walk(Pbar: FieldPoint, bound: int) -> list:
    """The coordinates of Pbar, 2*Pbar, ...: the bound of them, or those
    before the first k <= bound with k*Pbar = O, whose order is then k."""
    F, a, P = Pbar.field, Pbar.a, Pbar._coords()
    multiples = []
    Q = None
    for _ in range(bound):
        Q = _chord_tangent(F, a, Q, P)
        if Q is None:
            break
        multiples.append(Q)
    return multiples


def _annihilates(Pbar: FieldPoint, multiples: list, n: int) -> bool:
    """Whether n*Pbar = O, from a walk that met no O up to B*Pbar, B = len(multiples):
    with n = q*B + r, n*Pbar = q*(B*Pbar) + r*Pbar, and r*Pbar is in the walk."""
    F, a = Pbar.field, Pbar.a
    q, r = divmod(n, len(multiples))
    rest = multiples[r - 1] if r else None
    q_multiple = _power(multiples[-1], q, None, partial(_chord_tangent, F, a))
    return _chord_tangent(F, a, q_multiple, rest) is None


# The walk uses at most this many primes before the exact fallback.
_MAX_WALKS = 12


def nontorsion_certificate(P: FieldPoint, bound: int, primes: Iterable[int]) -> bool:
    """True iff k*P is never the identity for 1 <= k <= bound.

    Reduction at a good prime is a homomorphism (Silverman, The Arithmetic of
    Elliptic Curves, VII.2.1), so k*P = O forces k*Pbar = O.  primes are the
    candidate primes, ascending, such as those where the fiber splits; the
    walk starts at the first with p + 1 - 2*sqrt(p) > bound, where
    |E(F_p)| > bound by Hasse, so one walk usually settles the claim, and
    uses the first twelve at which P reduces to F_p.  At each one the walk
    Pbar, 2*Pbar, ..., bound*Pbar either misses O, which proves the claim,
    or first meets it at the order of Pbar; the exact law then tests only
    multiples of the lcm of those orders.  The verdict is the same whichever
    primes are walked: False needs some k <= bound with k*P = O in exact
    arithmetic, and if P has order n <= bound, each reduced order divides
    n, so no walk misses O and n is one of the multiples tested.  At the
    first prime used |E(F_p)| must annihilate Pbar, checking the count;
    when the walk met no O, that product starts from the walk's last
    multiple.
    """
    if bound < 1:
        raise InvalidInputError("bound must be >= 1")
    if P.is_infinity:
        return False
    step = 1
    used = 0
    for p in primes:
        if used >= _MAX_WALKS or step > bound:
            break
        if p + 1 <= bound or (p + 1 - bound) ** 2 <= 4 * p:
            continue  # below the Hasse start
        reduced = reduce_point_mod_p(P, p)
        if reduced is None:
            continue
        Pbar, group_order = reduced
        multiples = _walk(Pbar, bound)
        order = len(multiples) + 1 if len(multiples) < bound else None
        if not used and not (  # |E(F_p)| kills Pbar: the walk's order divides it
            group_order % order == 0 if order else _annihilates(Pbar, multiples, group_order)
        ):
            raise VerificationError("the reduced group order does not annihilate the point")
        if order is None:
            return True
        step = _int_lcm(step, order)
        used += 1
    k = step
    while k <= bound:
        if P.scalar_mul(k).is_infinity:
            return False
        k += step
    return True
