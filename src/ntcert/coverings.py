"""Degree-p coverings of the line branched at 0, 1, infinity.

Covers the computable content of that story: the congruence
1 + n + n^2 = 0 mod p and the superelliptic models y^p = x^n(x-1) it
produces; the plane curve X^m*Y + Y^m*Z + Z^m*X with its coordinate-shift
automorphism, fixed points over Q(rho), and the monomial map
(X:Y:Z) -> (X^m*Y : Y^m*Z : Z^m*X) onto the line a+b+c = 0; genus
bookkeeping by Riemann-Hurwitz; and the exact Fermat search that pins
down the rational points of x^p + y^p = z^p up to a bound.

The Fermat search tests only the triples the Barlow-Abel relations allow:
in a primitive positive solution each of z - y, z - x and x + y is t^p or
p^(p-1)*t^p (P. Ribenboim, Fermat's Last Theorem for Amateurs, Springer
1999), and every candidate is confirmed in exact integer arithmetic.  It
returns only the nontrivial solutions; the 6*bound + 1 trivial ones have a
closed form, and `trivial_solutions` lists them when they are asked for.

Q(rho) is exact.quotient's QuotientField over x^2 + x + 1 on UniPoly
representatives.  Fraction and the polynomials are imported inside the
functions that use them, so the Fermat search loads neither.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterator
from itertools import permutations, product
from math import gcd as _int_gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, VerificationError
from .exact.primes import is_prime

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact.quotient import QuotientField
    from .exact.unipoly import UniPoly

# trivial_solutions lists all 6*bound + 1 trivial solutions in memory, so it
# refuses bounds above this one before allocating anything; the search
# itself takes any bound.
_FERMAT_BOUND_MAX = 2 * 10**8


# -- the winding congruence and superelliptic models -----------------------------


def solve_eq5(p: int) -> list[int]:
    """All n in [1, p-1] with 1 + n + n^2 = 0 mod p, sorted.

    n = 1 at p = 3; otherwise n^3 = 1 with n != 1, so the roots are the two
    primitive cube roots of unity, which exist only for p = 1 mod 3: w and
    w^2 for w = g^((p-1)/3), the first such power with w != 1.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p == 3:
        return [1]
    if p % 3 != 1:
        return []
    w = next(w for g in range(2, p) if (w := pow(g, (p - 1) // 3, p)) != 1)
    return sorted((w, w * w % p))


class SuperellipticModel(NamedTuple):
    """y^p = x^r * (x-1)^s with local winding residues at 0, 1, infinity."""

    p: int
    r: int
    s: int
    w0: int
    w1: int
    w_inf: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "s": self.s,
            "w": [self.w0, self.w1, self.w_inf],
        }


def superelliptic_model(p: int, r: int, s: int) -> SuperellipticModel:
    """Validate exponent coprimality and the residue congruence, then build."""
    if not is_prime(p) or p == 2:
        raise InvalidInputError(f"{p} must be an odd prime")
    if r < 1 or s < 1:
        raise InvalidInputError("exponents must be positive")
    for name, value in (("r", r), ("s", s), ("r+s", r + s)):
        if _int_gcd(value, p) != 1:
            raise InvalidInputError(f"{name} = {value} is not coprime to {p}")
    w0, w1 = r % p, s % p
    w_inf = (-(r + s)) % p
    if (w0 + w1 + w_inf) % p:
        raise VerificationError("branch residues do not sum to 0 mod p")
    return SuperellipticModel(p, r, s, w0, w1, w_inf)


def model_from_n(p: int, n: int) -> SuperellipticModel:
    """The model y^p = x^n(x-1) for a congruence solution n."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if not (1 <= n <= p - 1 and (1 + n + n * n) % p == 0):
        raise InvalidInputError(f"1 + n + n^2 != 0 mod {p} for n = {n}")
    return superelliptic_model(p, n, 1)


# -- the triangle curve X^m Y + Y^m Z + Z^m X ------------------------------------


def proj_equal(P: tuple, Q: tuple, mul=operator.mul) -> bool:
    """Projective equality of nonzero coordinate tuples of one length: the two
    products (by mul) of every 2x2 cross minor agree, which needs no division."""
    if len(P) != len(Q):
        raise ValueError("projective points of different dimensions")
    if all(c == 0 for c in P) or all(c == 0 for c in Q):
        raise ValueError("the zero tuple is not a projective point")
    n = len(P)
    return all(mul(P[i], Q[j]) == mul(P[j], Q[i]) for i in range(n) for j in range(i + 1, n))


def _triangle_value(F: QuotientField, m: int, P: tuple[UniPoly, ...]) -> UniPoly:
    """X^m*Y + Y^m*Z + Z^m*X at P, in the field F."""
    from .exact.power import _power

    X, Y, Z = P
    mul = F._mul
    return sum((mul(_power(a, m, F.one, mul), b) for a, b in ((X, Y), (Y, Z), (Z, X))), F.zero)


def _shift(P: tuple) -> tuple:
    X, Y, Z = P
    return (Y, Z, X)


def m_for_prime(p: int) -> int | None:
    """The integer m >= 2 with m^2 - m + 1 = p, when it exists."""
    d = 4 * p - 3
    r = isqrt(d)
    if r * r != d or (1 + r) % 2 != 0:
        return None
    m = (1 + r) // 2
    return m if m >= 2 else None


def triangle_checks(m: int) -> dict:
    """Exact verifications on the degree-(m+1) triangle curve.

    Checks, in Q(rho) = Q[x]/(x^2 + x + 1): the coordinate shift preserves the
    defining polynomial (as a permutation of its monomials) and cyclically
    permutes the three coordinate points; both candidate fixed points are
    projectively fixed by the shift; and each lies on the curve exactly
    when m is not 2 mod 3 (equivalently p = m^2 - m + 1 is not divisible
    by 3).
    """
    from .exact.quotient import QuotientField
    from .exact.unipoly import UniPoly

    if m < 2:
        raise InvalidInputError("m must be >= 2")
    p = m * m - m + 1
    support = {(m, 1, 0), (0, m, 1), (1, 0, m)}
    shifted_support = {(c, a, b) for (a, b, c) in support}
    shift_preserves_curve = shifted_support == support

    # Q(rho) = Q[x]/(x^2 + x + 1), rho the class of x, a primitive cube root of unity
    F = QuotientField(UniPoly((1, 1, 1)))
    one, zero, mul = F.one, F.zero, F._mul
    coord_points = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    expected_cycle = [coord_points[2], coord_points[0], coord_points[1]]
    shift_permutes_coordinate_points = all(
        proj_equal(_shift(P), Q, mul) for P, Q in zip(coord_points, expected_cycle)
    )

    rho = UniPoly.x()
    fixed_points = [(rho, mul(rho, rho), one), (mul(rho, rho), rho, one)]
    fixed_projectively = all(proj_equal(_shift(P), P, mul) for P in fixed_points)
    on_curve = [_triangle_value(F, m, P).is_zero for P in fixed_points]
    fixed_points_on_curve = all(on_curve)
    if on_curve[0] != on_curve[1]:
        raise VerificationError("the two fixed points disagree about lying on the curve")

    return {
        "m": m,
        "p": p,
        "shift_preserves_curve": shift_preserves_curve,
        "shift_permutes_coordinate_points": shift_permutes_coordinate_points,
        "fixed_points_projectively_fixed": fixed_projectively,
        "fixed_points_on_curve": fixed_points_on_curve,
        "on_curve_matches_m_mod_3": fixed_points_on_curve == (m % 3 != 2),
        "on_curve_matches_p_mod_3": fixed_points_on_curve == (p % 3 != 0),
        "nonsingular": triangle_nonsingular(m),
    }


def triangle_nonsingular(m: int) -> bool:
    """Decide smoothness of the triangle curve symbolically.

    The shift automorphism moves any projective point to one with Z != 0,
    so it suffices to rule out singular points in the Z = 1 patch.  There
    the partial with respect to Z is linear in X; substituting its unique
    solution X = -Y^m / m into the other two partials leaves two univariate
    polynomials h1, h2 whose gcd is constant exactly when no common zero
    exists over the algebraic closure.

    h1 and h2 have two terms each and degree up to m^2, so the gcd is
    deflated (_sparse_gcd_degree): with h_i = Y^(v_i) * A_i(Y^g), v_i the
    lowest exponent of h_i and g the gcd of the exponent offsets,
    deg gcd(h1, h2) = min(v1, v2) + g * deg gcd(A1, A2), by two identities:
    gcd(Y^a*A, Y^b*B) = Y^min(a,b) * gcd(A, B) when A(0)*B(0) != 0, and
    gcd(A(Y^g), B(Y^g)) = gcd(A, B)(Y^g), as a Bezout identity
    S*A + T*B = gcd(A, B) survives Y -> Y^g.  Here A1 and A2 are linear.
    """
    from fractions import Fraction

    from .exact.bipoly import BiPoly

    if m < 2:
        raise InvalidInputError("m must be >= 2")
    # Projective partials restricted to Z = 1, as polynomials in (X, Y):
    fx = BiPoly({(m - 1, 1): m, (0, 0): 1})  # m X^(m-1) Y + Z^m
    fy = BiPoly({(m, 0): 1, (0, m - 1): m})  # X^m + m Y^(m-1) Z
    x_solved = BiPoly({(0, m): Fraction(-1, m)})  # from Y^m + m Z^(m-1) X = 0
    second = BiPoly.second()
    h1 = fx.substitute(x_solved, second).as_sparse_second()
    h2 = fy.substitute(x_solved, second).as_sparse_second()
    return _sparse_gcd_degree(h1, h2) == 0


def _sparse_gcd_degree(h1: dict[int, Fraction], h2: dict[int, Fraction]) -> int:
    """deg gcd(h1, h2) over Q, for nonzero {exponent: coefficient}
    polynomials in Y: the exact Euclid of UniPoly.gcd on the deflated
    A1, A2 of triangle_nonsingular's docstring."""
    from .exact.unipoly import UniPoly

    lows = [min(h) for h in (h1, h2)]
    g = _int_gcd(*(e - v for h, v in zip((h1, h2), lows) for e in h)) or 1
    A1, A2 = (sum((UniPoly.monomial((e - v) // g, c) for e, c in h.items()), UniPoly.zero())
              for h, v in zip((h1, h2), lows))
    return min(lows) + g * A1.gcd(A2).degree


def psi_identities(m: int) -> dict:
    """Exact identities for the monomial map onto the line a + b + c = 0.

    (i) pure exponent bookkeeping: a*b^(m-1)/c^m = (Y/Z)^(m^2-m+1) for
        a = X^m*Y, b = Y^m*Z, c = Z^m*X;
    (ii) on the line, with u = -b/c and v = (-1)^(m-1)*Y/Z, the relation
        v^(m^2-m+1) = u^(m-1)*(u-1);
    (iii) the coordinate shift induces u -> 1/(1-u), which 3-cycles
        0 -> 1 -> infinity -> 0.
    """
    from fractions import Fraction

    from .exact.unipoly import UniPoly

    if m < 2:
        raise InvalidInputError("m must be >= 2")
    N = m * m - m + 1

    a_exp, b_exp, c_exp = (m, 1, 0), (0, m, 1), (1, 0, m)
    combo = tuple(
        a_exp[i] + (m - 1) * b_exp[i] - m * c_exp[i] for i in range(3)
    )
    monomial_identity = combo == (0, N, -N)

    # Substitute b = -u, c = 1 (degree-0 homogeneity in (b, c)); then
    # a = -b - c = u - 1 and a*b^(m-1)/c^m becomes a univariate identity.
    u_minus_1 = UniPoly((-1, 1))
    neg_u = UniPoly((0, -1))
    lhs = u_minus_1 * neg_u ** (m - 1)
    sign = -1 if (m - 1) % 2 else 1
    rhs = sign * (UniPoly.monomial(m - 1) * u_minus_1)
    substitution_identity = lhs == rhs
    # v = (-1)^(m-1) Y/Z absorbs the sign precisely when (m-1)(N+1) is even.
    sign_absorbed = ((m - 1) * (N + 1)) % 2 == 0
    line_substitution_identity = substitution_identity and sign_absorbed

    # Shift sends (a, b, c) to (b, c, a), hence u = -b/c to -c/a = -1/(u-1).
    induced_num, induced_den = UniPoly((-1,)), u_minus_1
    target_num, target_den = UniPoly((1,)), UniPoly((1, -1))
    mobius_formula = induced_num * target_den == target_num * induced_den

    def mobius(pt: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        x, y = pt
        return (y, y - x)

    zero_pt, one_pt, inf_pt = (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (
        Fraction(1),
        Fraction(0),
    )
    cycle = (
        proj_equal(mobius(zero_pt), one_pt)
        and proj_equal(mobius(one_pt), inf_pt)
        and proj_equal(mobius(inf_pt), zero_pt)
    )
    m1 = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))

    def mat_mul(A, B):
        return (
            (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
        )

    cube = mat_mul(m1, mat_mul(m1, m1))
    order_three = cube[0][1] == 0 and cube[1][0] == 0 and cube[0][0] == cube[1][1] != 0
    mobius_three_cycle = mobius_formula and cycle and order_three

    extension_values = [(1, 0, -1), (-1, 1, 0), (0, -1, 1)]
    extension_values_on_line = all(sum(v) == 0 for v in extension_values)

    return {
        "m": m,
        "monomial_identity": monomial_identity,
        "line_substitution_identity": line_substitution_identity,
        "mobius_three_cycle": mobius_three_cycle,
        "extension_values_on_line": extension_values_on_line,
    }


# -- Riemann-Hurwitz ----------------------------------------------------------


class RamificationData(NamedTuple):
    """A covering degree, base genus, and ramification indices per branch point."""

    degree: int
    base_genus: int
    points: tuple[tuple[int, ...], ...]


def rh_genus(data: RamificationData) -> int:
    """Genus of the cover from 2g - 2 = d(2g0 - 2) + sum(e - 1)."""
    if data.degree < 1 or data.base_genus < 0:
        raise InvalidInputError("degree must be >= 1 and base genus >= 0")
    total = 0
    for indices in data.points:
        if not indices or any(e < 1 for e in indices):
            raise InvalidInputError("ramification indices must be >= 1")
        if sum(indices) != data.degree:
            raise InvalidInputError("indices over a branch point must sum to the degree")
        total += sum(e - 1 for e in indices)
    rhs = data.degree * (2 * data.base_genus - 2) + total
    if rhs % 2 != 0 or rhs + 2 < 0:
        raise InvalidInputError(f"2g - 2 = {rhs} is not realizable")
    return (rhs + 2) // 2


def superelliptic_genus(p: int) -> int:
    """Genus (p-1)/2 of the degree-p cover totally ramified over three points."""
    if not is_prime(p) or p == 2:
        raise InvalidInputError(f"{p} must be an odd prime")
    return rh_genus(RamificationData(p, 0, ((p,), (p,), (p,))))


def quotient_genus(p: int) -> int:
    """Genus of the order-3 quotient: (p-1)/6 for p = 1 mod 6, and 1 for p = 3.

    For p = 1 mod 6 the formula is cross-checked by Riemann-Hurwitz for the
    degree-3 map with two totally ramified points; for p = 3 the quotient
    map is unramified.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p == 3:
        g = 1
        if rh_genus(RamificationData(3, g, ())) != superelliptic_genus(3):
            raise VerificationError("Riemann-Hurwitz disagrees with the genus at p = 3")
        return g
    if p % 6 != 1:
        raise InvalidInputError(f"no order-3 symmetry for p = {p}")
    g = (p - 1) // 6
    if rh_genus(RamificationData(3, g, ((3,), (3,)))) != superelliptic_genus(p):
        raise VerificationError(f"Riemann-Hurwitz disagrees with the quotient genus at p = {p}")
    return g


# -- the Fermat desk search ----------------------------------------------------


def _barlow_values(p: int, limit: int) -> list[int]:
    """The numbers t^p and p^(p-1)*t^p (t >= 1) up to limit, ascending.

    The two kinds never meet: their p-adic valuations are 0 and p - 1 mod p.
    """
    values = []
    for scale in (1, p ** (p - 1)):
        t = 1
        while scale * t**p <= limit:
            values.append(scale * t**p)
            t += 1
    return sorted(values)


def _barlow_candidates(p: int, bound: int) -> Iterator[tuple[int, int, int]]:
    """Every (x, y, z) with 1 <= x <= y < z <= bound whose z - y, z - x and
    x + y are each t^p or p^(p-1)*t^p, generated one at a time, as at p = 3
    there are about 0.44*bound of them.

    With A = z - y <= B = z - x and C = x + y, z = (A + B + C)/2, x = z - B
    and y = z - A, so x <= y follows from A <= B, and x >= 1, that is z > B,
    from C > B - A: the walk over the sums starts at the first such C.
    """
    differences = _barlow_values(p, bound)
    sums = _barlow_values(p, 2 * bound)
    for i, A in enumerate(differences):
        for B in differences[i:]:
            for C in sums[bisect_right(sums, B - A):]:
                twice_z = A + B + C
                if twice_z > 2 * bound:
                    break
                if twice_z % 2 == 0:
                    z = twice_z // 2
                    yield (z - B, z - A, z)


def _positive_power_triples(p: int, bound: int) -> list[tuple[int, int, int]]:
    """All 1 <= x <= y < z <= bound with x^p + y^p = z^p, as sorted (x, y, z).

    Each Barlow candidate that x^p + y^p == z^p confirms is scaled by
    d = 1, ..., bound // z; `fermat_search` proves that this finds them all.
    """
    hits = set()
    for x, y, z in _barlow_candidates(p, bound):
        if x**p + y**p == z**p:
            hits.update((d * x, d * y, d * z) for d in range(1, bound // z + 1))
    return sorted(hits)


def trivial_solutions(bound: int) -> list[tuple[int, int, int]]:
    """The trivial solutions (a, a, 0), (a, 0, a), (0, a, -a) with |a| <= bound,
    6*bound + 1 of them, in sorted order.  Bounds above _FERMAT_BOUND_MAX are
    refused before anything is allocated."""
    if bound < 1:
        raise InvalidInputError("bound must be >= 1")
    if bound > _FERMAT_BOUND_MAX:
        raise InvalidInputError(
            f"bound must be <= {_FERMAT_BOUND_MAX}, as all 6*bound + 1 trivial solutions are listed"
        )
    solutions = [t for a in range(-bound, 0) for t in ((a, a, 0), (a, 0, a))]
    solutions += [(0, b, -b) for b in range(-bound, bound + 1)]
    solutions += [t for a in range(1, bound + 1) for t in ((a, 0, a), (a, a, 0))]
    return solutions


def fermat_search(p: int, bound: int) -> list[tuple[int, int, int]]:
    """The nontrivial integer solutions (ABC != 0) of A^p = B^p + C^p with
    |A|, |B|, |C| <= bound, sorted; `trivial_solutions` lists the others.

    Any nontrivial solution is a positive x^p + y^p = z^p,
    x <= y < z <= bound, up to signs and coordinate permutations; those
    come from `_positive_power_triples` and are expanded here.

    Completeness.  A positive solution is d times a primitive one,
    gcd(x, y) = 1, with z <= bound // d, so it suffices that the primitive
    ones are Barlow candidates (`_barlow_candidates`).  Let
    Q = (z^p - y^p)/(z - y) = sum_{i<p} z^(p-1-i)*y^i, so (z - y)*Q = x^p.
    As z = y mod (z - y), Q = p*y^(p-1) mod (z - y), and gcd(z - y, y) =
    gcd(z, y) = 1, so gcd(z - y, Q) divides p.  If p does not divide z - y,
    the coprime positive factors z - y and Q of a p-th power are p-th
    powers: z - y = t^p.  If p divides z - y, then p divides neither y nor
    z, and lifting the exponent gives v_p(Q) = 1; every other prime still
    divides only one factor, so v_p(z - y) = p*v_p(x) - 1 and
    z - y = p^(p-1)*t^p.  The same holds for z - x, and for x + y as a
    factor of z^p = x^p + y^p with Q = (x^p + y^p)/(x + y) =
    p*y^(p-1) mod (x + y), p being odd.  Here z - y and z - x are at most
    bound and x + y is below 2*bound.  None of this depends on the bound,
    so every bound >= 1 is searched.
    """
    if p not in (3, 5, 7):
        raise InvalidInputError("supported exponents are 3, 5, and 7")
    if bound < 1:
        raise InvalidInputError("bound must be >= 1")
    expanded: set[tuple[int, int, int]] = set()
    for x, y, z in _positive_power_triples(p, bound):
        for pa, pb, pc in permutations((x, y, z)):
            for sa, sb, sc in product((1, -1), repeat=3):
                A, B, C = sa * pa, sb * pb, sc * pc
                if max(abs(A), abs(B), abs(C)) <= bound and A**p == B**p + C**p:
                    expanded.add((A, B, C))
    return sorted(expanded)


# -- aggregated report ----------------------------------------------------------


def covering_report(p: int) -> dict:
    """Everything this module certifies about the degree-p covering."""
    genus = superelliptic_genus(p)
    g_quot = quotient_genus(p)
    solutions = solve_eq5(p)
    models = [model_from_n(p, n).to_json_dict() for n in solutions]
    m = m_for_prime(p)
    report = {
        "p": p,
        "m": m,
        "n_solutions": solutions,
        "models": models,
        "genus": genus,
        "quotient_genus": g_quot,
    }
    if m is not None:
        tri = triangle_checks(m)
        checks = {**tri, **psi_identities(m)}
        report["triangle"] = {
            "m": m,
            "fixed_points_on_curve": tri["fixed_points_on_curve"],
            "identities": {
                k: v for k, v in checks.items() if k not in ("m", "p", "fixed_points_on_curve")
            },
        }
    else:
        report["triangle"] = None
    return report
