"""The two-parameter elliptic family with forced-square fiber discriminants.

Free parameters a1, a4 (both nonzero) determine a curve

    y^2 + a1*x*y + a3*y = x^3 + a4*x + a6

whose remaining coefficients are pinned so that the cubic in x obtained by
freezing y = t,

    fiber(x) = x^3 + (a4 - a1*t)*x + (a6 - a3*t - t^2),

has discriminant (-4*(a4-a1*t) - 27*w^2) * (a4-a1*t)^2 with w = a6/a4 + t/a1,
and the leading factor completes to a square on the rational curve
1 = u^2 + 3*v^2.  Rational s parametrizes that conic; every fiber therefore
has square discriminant, so its irreducible specializations generate cyclic
cubic fields.  The modules here construct those fibers, put exact points on
the curve over the resulting cubic fields, bound torsion by reduction modulo
at least two good primes, and assemble audit certificates.

The j-invariant of the family depends on a1 alone:

    j = 256 * (a1^4 + 54)^3 * a1^4 / (4*a1^4 - 27)^3.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import ClassVar, Sequence

from .cubicfield import (
    DEFAULT_WITNESS_BOUND,
    CubicField,
    DisjointnessWitness,
    GaloisClass,
    SplitTypeMatrix,
    _bad_part,
    _root_counts,
    galois_class,  # not called here; perfbench's tests expect it bound in family
)
from .errors import (
    DegenerateFamilyError,
    DegenerateFiberError,
    IncompatiblePointsError,
    InvalidInputError,
    InvalidPrimeError,
    RationalFiberError,
    SingularCurveError,
    VerificationError,
)
from .exact import (
    FqElem,
    ModPoly,
    QuotientElem,
    UniPoly,
    count_distinct_roots,  # not called here; perfbench's tests expect it bound in family
    irreducible_mod_p,
    is_prime,
    iter_primes,
)


class WeierstrassCurve:
    """A nonsingular Weierstrass model with the standard derived quantities."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8", "c4", "c6", "disc", "j")

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

    @property
    def a_invariants(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeierstrassCurve):
            return self.a_invariants == other.a_invariants
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a_invariants)

    def __repr__(self) -> str:
        return f"WeierstrassCurve{self.a_invariants}"


@dataclass(frozen=True)
class FamilyParams:
    """Family coefficients: a1, a4 free, a3 and a6 derived."""

    a1: Fraction
    a4: Fraction
    a3: Fraction
    a6: Fraction

    @lru_cache  # one cache per process, keyed by the params' values
    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(self.a1, 0, self.a3, self.a4, self.a6)


def derive_family(a1: Fraction | int, a4: Fraction | int) -> FamilyParams:
    """Derive a3, a6 from free a1, a4; reject degenerate parameter choices."""
    a1, a4 = Fraction(a1), Fraction(a4)
    if a1 == 0 or a4 == 0:
        raise DegenerateFamilyError("a1 and a4 must be nonzero")
    if 4 * a1**4 == 27:
        raise DegenerateFamilyError("4*a1^4 = 27 collapses the j-invariant")
    a6 = a4 * a1**2 / 27 - a4 / (4 * a1**2) - a4**2 / a1**2
    a3 = a1 * a6 / a4 - a4 / a1
    params = FamilyParams(a1, a4, a3, a6)
    try:
        params.curve()
    except SingularCurveError as exc:
        raise DegenerateFamilyError(f"singular member at a1={a1}, a4={a4}") from exc
    return params


def closed_form_j(a1: Fraction | int) -> Fraction:
    """j as a function of a1 alone (a4 cancels)."""
    a1 = Fraction(a1)
    den = (4 * a1**4 - 27) ** 3
    if den == 0:
        raise DegenerateFamilyError("4*a1^4 = 27")
    return 256 * (a1**4 + 54) ** 3 * a1**4 / den


def curve_invariants_j(params: FamilyParams) -> WeierstrassCurve:
    """Build the Weierstrass model and check its j against the closed form."""
    curve = params.curve()
    if curve.j != closed_form_j(params.a1):
        raise VerificationError("formulary j disagrees with closed form")
    return curve


# -- fibers ------------------------------------------------------------------


@dataclass(frozen=True)
class FiberData:
    s: Fraction
    t: Fraction
    u: Fraction
    v: Fraction
    fiber: UniPoly
    disc: Fraction
    sqrt_disc: Fraction


def fiber_at_s(params: FamilyParams, s: Fraction | int) -> FiberData:
    """Specialize the family at the conic parameter s.

    u and v satisfy 1 = u^2 + 3v^2 identically; t is solved from the
    v-equation, and the fiber discriminant is recomputed independently by
    the resultant route and checked against u^2*(a4 - a1*t)^2.
    """
    s = Fraction(s)
    a1, a4, a3, a6 = params.a1, params.a4, params.a3, params.a6
    den = 1 + 3 * s**2
    u = (1 - 3 * s**2) / den
    v = 2 * s / den
    if u**2 + 3 * v**2 != 1:
        raise VerificationError("(u, v) is off the conic u^2 + 3v^2 = 1")
    t = a1 * (v / 3 - a6 / a4 + 2 * a1**2 / 27)
    p = a4 - a1 * t
    if p == 0:
        raise DegenerateFiberError(f"fiber at s={s} degenerates to x^3")
    q = a6 - a3 * t - t**2
    fiber = UniPoly((q, p, 0, 1))
    disc = fiber.discriminant()
    expected = u**2 * p**2
    if disc != expected:
        raise VerificationError("fiber discriminant identity failed")
    sqrt_disc = abs(u * p)
    return FiberData(s, t, u, v, fiber, disc, sqrt_disc)


# -- points and the group law --------------------------------------------------


def _chord_tangent(a, P, Q):
    """P + Q on the curve with a-invariants a, all in one field; None is the identity.

    Points are coordinate pairs and field elements need only + - *, int
    scaling, inverse(), is_zero and ==, so the same law runs over Q[x]/(f)
    and over the residue fields F_p[x]/(m).
    """
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = a
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3).is_zero:
            return None
        inv = (y1 + y1 + a1 * x1 + a3).inverse()
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv
        nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) * inv
    else:
        inv = (x2 - x1).inverse()
        lam = (y2 - y1) * inv
        nu = (y1 * x2 - y2 * x1) * inv
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return x3, y3


def _double_and_add(a, P, k: int):
    """k*P for k >= 0 by the binary method over _chord_tangent."""
    result = None
    while k:
        if k & 1:
            result = _chord_tangent(a, result, P)
        k >>= 1
        if k:
            P = _chord_tangent(a, P, P)
    return result


class FieldPoint:
    """A point of the curve with coordinates in a field K.

    K is Q[x]/(modulus) with QuotientElem coordinates (rational points use
    the degree-1 modulus x), or a residue field F_p[x]/(modulus) with FqElem
    coordinates.  ``a`` holds the curve's a-invariants as elements of K, so
    one group law serves every field.  The point at infinity has
    x = y = None.
    """

    __slots__ = ("curve", "modulus", "a", "x", "y")

    def __init__(self, curve, modulus, a, x=None, y=None, *, check=True):
        self.curve = curve
        self.modulus = modulus
        self.a = a
        self.x = x
        self.y = y
        if x is not None and check and not self._equation_value().is_zero:
            raise InvalidInputError("point does not satisfy the curve equation")

    @classmethod
    def affine(
        cls, curve: WeierstrassCurve, modulus: UniPoly, x: QuotientElem, y: QuotientElem,
        *, check: bool = True,
    ) -> "FieldPoint":
        a = tuple(
            QuotientElem(UniPoly.constant(c), modulus, validate=False) for c in curve.a_invariants
        )
        return cls(curve, modulus, a, x, y, check=check)

    @classmethod
    def from_rationals(
        cls, curve: WeierstrassCurve, x: Fraction | int, y: Fraction | int
    ) -> "FieldPoint":
        m = UniPoly.x()
        return cls.affine(curve, m, QuotientElem.constant(x, m), QuotientElem.constant(y, m))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _coords(self):
        return None if self.x is None else (self.x, self.y)

    def _sibling(self, coords) -> "FieldPoint":
        """The point with these coordinates (None: infinity) on the same curve over K."""
        x, y = coords or (None, None)
        return FieldPoint(self.curve, self.modulus, self.a, x, y, check=False)

    def _equation_value(self):
        a1, a2, a3, a4, a6 = self.a
        x, y = self.x, self.y
        return y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6

    def to_rationals(self) -> tuple[Fraction, Fraction]:
        if self.is_infinity or not isinstance(self.x, QuotientElem) or self.modulus.degree != 1:
            raise InvalidInputError("not an affine rational point")
        return self.x.rep.coefficient(0), self.y.rep.coefficient(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPoint):
            return NotImplemented
        if self.curve != other.curve or self.modulus != other.modulus:
            return False
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve, self.modulus, self.x, self.y))

    def __repr__(self) -> str:
        return "FieldPoint(infinity)" if self.is_infinity else f"FieldPoint(x={self.x}, y={self.y})"

    def __neg__(self) -> "FieldPoint":
        if self.is_infinity:
            return self
        a1, _, a3, _, _ = self.a
        return self._sibling((self.x, -self.y - a1 * self.x - a3))

    def __add__(self, other: "FieldPoint") -> "FieldPoint":
        if not isinstance(other, FieldPoint):
            return NotImplemented
        if self.curve != other.curve or self.modulus != other.modulus:
            raise IncompatiblePointsError("points on different curves or fields")
        return self._sibling(_chord_tangent(self.a, self._coords(), other._coords()))

    def scalar_mul(self, k: int) -> "FieldPoint":
        if k < 0:
            return (-self).scalar_mul(-k)
        return self._sibling(_double_and_add(self.a, self._coords(), k))


def rational_3_torsion(params: FamilyParams) -> FieldPoint:
    """The rational point (0, a4/a1), checked to have exact order 3."""
    curve = params.curve()
    P = FieldPoint.from_rationals(curve, 0, params.a4 / params.a1)
    double = P + P
    if double.is_infinity or double != -P:
        raise VerificationError("doubling did not negate the 3-torsion point")
    return P


def point_from_fiber(params: FamilyParams, s: Fraction | int) -> FieldPoint:
    """The point (theta, t) over Q[theta]/(fiber); errors if the fiber splits."""
    fd = fiber_at_s(params, s)
    return point_from_fiber_data(params, fd)


def point_from_fiber_data(params: FamilyParams, fd: FiberData) -> FieldPoint:
    """(theta, t) over Q[theta]/(fiber); errors if the fiber has a rational root.
    As a2 = 0, the point is on the curve iff E(x, t) = -fiber(x) in Q[x]: no
    Q[theta] arithmetic."""
    if fd.fiber.rational_roots():
        raise RationalFiberError(f"fiber at s={fd.s} is reducible over Q")
    curve = params.curve()
    a1, a2, a3, a4, a6 = curve.a_invariants
    t, m = fd.t, fd.fiber
    if UniPoly((t * t + a3 * t - a6, a1 * t - a4, -a2, -1)) != -m:
        raise VerificationError(f"(theta, t) at s={fd.s} is off the curve")
    x = QuotientElem(UniPoly.x(), m, validate=False)
    y = QuotientElem(UniPoly.constant(t), m, validate=False)
    return FieldPoint.affine(curve, m, x, y, check=False)


# -- reduction and torsion bounds ----------------------------------------------


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
        raise InvalidPrimeError(f"{p} is not a prime of good reduction")

    def red(c: Fraction) -> int:
        return c.numerator * pow(c.denominator, -1, p) % p

    b2, b4, b6 = red(curve.b2), red(curve.b4), red(curve.b6)
    total = p + 1
    half = (p - 1) // 2
    for x in range(p):
        g = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % p
        if g == 0:
            continue
        total += 1 if pow(g, half, p) == 1 else -1
    return total


def frobenius_trace(curve: WeierstrassCurve, p: int) -> int:
    return p + 1 - count_points_mod_p(curve, p)


def trace_over_extension(a_p: int, p: int, k: int) -> int:
    """Frobenius trace over F_{p^k} via a_k = a_p*a_{k-1} - p*a_{k-2}, a_0 = 2."""
    if k < 0:
        raise InvalidInputError("extension degree must be nonnegative")
    prev, cur = 2, a_p
    for _ in range(k):
        prev, cur = cur, a_p * cur - p * prev
    return prev


def residue_degree(fiber: UniPoly, p: int) -> int:
    """Residue degree at an unramified p of the C3 field of the fiber: 1 or 3."""
    return 3 if _root_counts(fiber, (p,)) == [0] else 1


def _group_order(curve: WeierstrassCurve, p: int, d: int) -> int:
    """|E(F_{p^d})| at a good prime p."""
    return p**d + 1 - trace_over_extension(frobenius_trace(curve, p), p, d)


def _torsion_primes(curve: WeierstrassCurve, fiber: UniPoly, disc: Fraction | None = None):
    """Ascending primes > 3 of good reduction for the curve, unramified in the fiber."""
    bad = _bad_part(fiber, fiber.discriminant() if disc is None else disc)
    return (p for p in iter_primes(5) if bad % p and is_good_prime(curve, p))


def good_torsion_primes(params: FamilyParams, fiber: UniPoly, count: int = 2) -> list[int]:
    """The `count` smallest primes > 3 of good reduction, unramified in the fiber."""
    return list(islice(_torsion_primes(params.curve(), fiber), count))


def torsion_bound(
    params: FamilyParams, fiber: UniPoly, primes: Sequence[int], *, _disc: Fraction | None = None
) -> int:
    """gcd over the supplied primes of |E(F_{p^d_p})|, d_p from the fiber mod p.

    Torsion of the curve over the cubic field injects into each of those
    reduced groups, so the gcd bounds its order.  Primes must be good for
    the curve and unramified for the fiber, with distinct residue
    characteristics; at least two are required.
    """
    curve = params.curve()
    if len(primes) < 2 or len(set(primes)) != len(primes):
        raise InvalidPrimeError("at least two distinct primes are required")
    bad = _bad_part(fiber, fiber.discriminant() if _disc is None else _disc)
    for p in primes:
        if not is_good_prime(curve, p):
            raise InvalidPrimeError(f"{p} is not a good-reduction prime")
        if bad % p == 0:
            raise InvalidPrimeError(f"{p} ramifies in the fiber cubic")
    return _int_gcd(*(_group_order(curve, p, residue_degree(fiber, p)) for p in primes))


# torsion_bound_adaptive adds good primes while the bound exceeds the
# target, up to this many primes in all.
_TORSION_BOUND_TARGET = 30
_MAX_TORSION_PRIMES = 12


def torsion_bound_adaptive(
    params: FamilyParams, fiber: UniPoly, base_count: int = 2, *, _disc: Fraction | None = None
) -> tuple[int, tuple[int, ...]]:
    """Torsion bound over the first `base_count` (>= 2) good primes, pulling
    in more while it stays large.

    The gcd over any superset of good primes is still a valid upper bound
    on the torsion order, and a couple of extra primes almost always
    collapse it to a small value; that keeps the non-torsion scan (whose
    point heights grow quadratically) cheap.
    """
    if base_count < 2:
        raise InvalidInputError("at least two torsion primes are required")
    curve = params.curve()
    primes: list[int] = []
    bound = 0
    for p in _torsion_primes(curve, fiber, _disc):
        primes.append(p)
        bound = _int_gcd(bound, _group_order(curve, p, residue_degree(fiber, p)))
        if len(primes) >= base_count and (
            bound <= _TORSION_BOUND_TARGET or len(primes) >= _MAX_TORSION_PRIMES
        ):
            return bound, tuple(primes)
    raise InvalidPrimeError("prime search exhausted")  # pragma: no cover


@lru_cache(maxsize=1024)
def _invariants_mod_p(curve: WeierstrassCurve, p: int) -> tuple[int, ...]:
    """The curve's a-invariants reduced mod a good prime p."""
    return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in curve.a_invariants)


def reduce_point_mod_p(P: FieldPoint, p: int) -> tuple[FieldPoint, int] | None:
    """Reduce P at a residue-field hom above p; None when p is unusable.

    Returns (Pbar, group_order): the image point over F_p[x]/(modulus),
    with Pbar.modulus = x - r for a root r of the reduced modulus or the
    irreducible reduced modulus itself, and the order of the reduced group
    E(F_{p^d}), d = deg(modulus).  Any root of the reduced modulus gives a
    genuine residue map, so ramified primes are fine; only bad reduction,
    non-p-integral coordinates, or an undecidable factor shape skip.
    """
    curve = P.curve
    if P.is_infinity or not is_good_prime(curve, p):
        return None
    reps = list(P.x.rep.coeffs) + list(P.y.rep.coeffs)
    if any(c.denominator % p == 0 for c in reps):
        return None
    fbar = ModPoly.from_unipoly(P.modulus, p)
    root = next((r for r in range(p) if fbar.evaluate(r) == 0), None)
    if root is not None:
        modulus = ModPoly((-root, 1), p, check_prime=False)
    elif fbar.degree in (2, 3) or irreducible_mod_p(fbar):
        modulus = fbar
    else:
        return None

    def lift(f: UniPoly) -> FqElem:
        return FqElem.reduce(ModPoly.from_unipoly(f, p), modulus)

    pad = (0,) * (modulus.degree - 1)
    a = tuple(FqElem((c, *pad), modulus) for c in _invariants_mod_p(curve, p))
    Pbar = FieldPoint(curve, modulus, a, lift(P.x.rep), lift(P.y.rep), check=False)
    if not Pbar._equation_value().is_zero:
        raise VerificationError("reduction left the curve")
    return Pbar, _group_order(curve, p, modulus.degree)


def _order_up_to(Pbar: FieldPoint, bound: int) -> int | None:
    """The first k <= bound with k*Pbar = O, walking Pbar, 2*Pbar, ...; None if none."""
    Q = None
    for k in range(1, bound + 1):
        Q = _chord_tangent(Pbar.a, Q, Pbar._coords())
        if Q is None:
            return k
    return None


def nontorsion_certificate(P: FieldPoint, bound: int) -> bool:
    """True iff k*P is never the identity for 1 <= k <= bound.

    Reduction at a good prime is a homomorphism (Silverman, The Arithmetic of
    Elliptic Curves, VII.2.1), so k*P = O forces k*Pbar = O.  At each usable
    prime the walk Pbar, 2*Pbar, ..., bound*Pbar either misses O, which proves
    the claim, or first meets it at the order of Pbar; the exact law then tests
    only multiples of the lcm of those orders (at most six primes).  At the
    first usable prime |E(F_{p^d})| must annihilate Pbar, checking the count.
    """
    if bound < 1:
        raise InvalidInputError("bound must be >= 1")
    if P.is_infinity:
        return False
    step = 1
    used = 0
    for p in iter_primes(5):
        if used >= 6 or step > bound:
            break
        reduced = reduce_point_mod_p(P, p)
        if reduced is None:
            continue
        Pbar, group_order = reduced
        order = _order_up_to(Pbar, bound)
        if not used and not (  # |E(F_{p^d})| kills Pbar: the walk's order divides it
            group_order % order == 0 if order else Pbar.scalar_mul(group_order).is_infinity
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


# -- certificates and the scan --------------------------------------------------


@dataclass(frozen=True)
class ExtensionCertificate:
    """Audit record for one accepted fiber.  Every accepted fiber is C3:
    it is irreducible, and fiber_at_s has proved its discriminant a square."""

    galois_class: ClassVar[GaloisClass] = GaloisClass.C3

    s: Fraction
    t: Fraction
    fiber: UniPoly
    disc: Fraction
    sqrt_disc: Fraction
    point: FieldPoint
    torsion_primes: tuple[int, ...]
    torsion_bound: int
    nontorsion_checked_to: int
    disjointness: tuple[tuple[Fraction, DisjointnessWitness], ...]

    def cubic_field(self) -> CubicField:
        return CubicField(self.fiber, self.disc, self.sqrt_disc, self.galois_class)

    def to_json_dict(self) -> dict:
        """The certificate's JSON form.  The scan writes the same text with
        jsonio.dumps_scan, without this dict per pair."""
        from .jsonio import to_jsonable

        return {
            "s": to_jsonable(self.s),
            "t": to_jsonable(self.t),
            "fiber": to_jsonable(self.fiber),
            "disc": to_jsonable(self.disc),
            "sqrt_disc": to_jsonable(self.sqrt_disc),
            "galois_class": self.galois_class.value,
            "point": {"x": to_jsonable(self.point.x.rep), "y": to_jsonable(self.point.y.rep)},
            "torsion_primes": list(self.torsion_primes),
            "torsion_bound": self.torsion_bound,
            "nontorsion_checked_to": self.nontorsion_checked_to,
            "disjointness": [
                {"vs_s": to_jsonable(s), **w.to_json_dict()} for s, w in self.disjointness
            ],
        }


@dataclass
class ScanResult:
    params: FamilyParams
    certificates: list[ExtensionCertificate] = field(default_factory=list)
    fibers_tested: int = 0
    skipped_reducible: int = 0
    skipped_presumed_equal: int = 0
    skipped_torsion: int = 0

    def summary(self) -> dict:
        from .jsonio import to_jsonable

        return {
            "params": {"a1": to_jsonable(self.params.a1), "a4": to_jsonable(self.params.a4)},
            "fibers_tested": self.fibers_tested,
            "accepted": len(self.certificates),
            "skipped_reducible": self.skipped_reducible,
            "skipped_presumed_equal": self.skipped_presumed_equal,
            "skipped_torsion": self.skipped_torsion,
        }


def enumerate_s_by_height(height_max: int) -> list[Fraction]:
    """Rationals ordered by height max(|num|, den), ascending value within a height."""
    if height_max < 1:
        raise InvalidInputError("height bound must be >= 1")
    out: list[Fraction] = []
    for h in range(1, height_max + 1):
        batch = set()
        for b in range(1, h + 1):
            if _int_gcd(h, b) == 1:
                batch.add(Fraction(h, b))
                batch.add(Fraction(-h, b))
        for a in range(-h + 1, h):
            if _int_gcd(abs(a), h) == 1:
                batch.add(Fraction(a, h))
        out.extend(sorted(batch))
    return out


def evaluate_fiber(
    params: FamilyParams,
    s: Fraction,
    torsion_primes: int | Sequence[int] = 2,
) -> ExtensionCertificate | str:
    """Run the per-fiber pipeline; independent of every other fiber.

    Returns "reducible" when the fiber degenerates to x^3 or has a rational
    root, "torsion" when its point has finite order (at most the torsion
    bound), and otherwise the fiber's certificate with disjointness=(),
    which the scan's distinctness fold fills in.  The certificate's field
    is C3: the fiber is irreducible, and fiber_at_s has proved its
    discriminant the square sqrt_disc^2.
    """
    try:
        fd = fiber_at_s(params, s)
        point = point_from_fiber_data(params, fd)
    except (DegenerateFiberError, RationalFiberError):
        return "reducible"
    if isinstance(torsion_primes, int):
        bound, primes = torsion_bound_adaptive(params, fd.fiber, torsion_primes, _disc=fd.disc)
    else:
        primes = tuple(torsion_primes)
        bound = torsion_bound(params, fd.fiber, primes, _disc=fd.disc)
    if not nontorsion_certificate(point, bound):
        return "torsion"
    return ExtensionCertificate(
        s=fd.s,
        t=fd.t,
        fiber=fd.fiber,
        disc=fd.disc,
        sqrt_disc=fd.sqrt_disc,
        point=point,
        torsion_primes=primes,
        torsion_bound=bound,
        nontorsion_checked_to=bound,
        disjointness=(),
    )


def _fiber_key(params: FamilyParams, s: Fraction):
    """The fiber at s and its sqrt_disc, or None if it degenerates to x^3."""
    try:
        fd = fiber_at_s(params, s)
    except DegenerateFiberError:
        return None
    return fd.fiber, fd.sqrt_disc


def scan_family(
    params: FamilyParams,
    s_height_max: int,
    witness_bound: int = DEFAULT_WITNESS_BOUND,
    torsion_primes: int | Sequence[int] = 2,
    jobs: int = 1,
) -> ScanResult:
    """Enumerate fibers by height and fold them into an accepted certificate set.

    The fiber depends on s only through v = 2s/(1 + 3s^2), which s and
    1/(3s) share, so evaluate_fiber runs once per v, for its first s; it is
    independent per s and may run in a process pool.  A later s with the
    same v must reproduce that fiber and sqrt_disc, and takes its outcome: a
    certificate becomes a presumed-equal skip, as the repeated field has
    rows identical to the first.  Acceptance (witnesses against every
    accepted field, from a SplitTypeMatrix) is a serial fold in enumeration
    order, so output is deterministic for any job count.
    """
    if s_height_max < 1:
        raise InvalidInputError("s_height_max must be >= 1")
    if witness_bound < 2:
        raise InvalidInputError("witness_bound must be >= 2")
    if jobs < 1:
        raise InvalidInputError("jobs must be >= 1")
    s_values = enumerate_s_by_height(s_height_max)
    v_of = {s: 2 * s / (1 + 3 * s * s) for s in s_values}
    first_s: dict[Fraction, Fraction] = {}
    for s, v in v_of.items():
        first_s.setdefault(v, s)
    repeats = Counter(v_of.values())
    evaluated = list(first_s.values())
    tasks = (evaluate_fiber, repeat(params), evaluated, repeat(torsion_primes))
    # A fork pool starts every worker up front, whatever the number of tasks.
    workers = min(jobs, os.cpu_count() or 1, len(evaluated))
    result = ScanResult(params)
    matrix = SplitTypeMatrix(witness_bound)
    pending = {}  # v -> (skip kind, fiber class) for the later s with that v
    with ExitStack() as stack:
        # The fold takes each outcome as it arrives, while the workers run on.
        if workers > 1:
            chunk = max(1, len(evaluated) // (4 * workers))
            # An attribute of the module (see __getattr__), so a pool class set there is used.
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            pool = stack.enter_context(pool_class(max_workers=workers))
            outcomes = pool.map(*tasks, chunksize=chunk)
        else:
            outcomes = map(*tasks)
        for s, v in v_of.items():
            result.fibers_tested += 1
            if first_s[v] != s:
                skip, expected = pending.pop(v)
                if _fiber_key(params, s) != expected:
                    raise VerificationError(f"s={s} and s={first_s[v]} share v but not the fiber")
            else:
                outcome = next(outcomes)
                if isinstance(outcome, str):
                    skip = outcome
                else:
                    witnesses = matrix.admit(outcome.cubic_field())
                    if witnesses is None:
                        skip = "presumed_equal"
                    else:
                        skip = None
                        earlier = (cert.s for cert in result.certificates)
                        result.certificates.append(
                            replace(outcome, disjointness=tuple(zip(earlier, witnesses)))
                        )
                if repeats[v] > 1:
                    expected = (
                        _fiber_key(params, s)
                        if isinstance(outcome, str)
                        else (outcome.fiber, outcome.sqrt_disc)
                    )
                    pending[v] = (skip or "presumed_equal", expected)
            if skip == "reducible":
                result.skipped_reducible += 1
            elif skip == "torsion":
                result.skipped_torsion += 1
            elif skip == "presumed_equal":
                result.skipped_presumed_equal += 1
    return result


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first access (PEP 562), so that a serial
    scan never loads concurrent.futures.process or multiprocessing."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
