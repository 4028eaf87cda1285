import os
import random
from fractions import Fraction

import pytest

from ntcert import cubicfield, family
from ntcert.cubicfield import GaloisClass, galois_class
from ntcert.errors import (
    DegenerateFiberError,
    InvalidInputError,
    VerificationError,
)
from ntcert.exact import QuotientElem, UniPoly, count_distinct_roots, iter_primes, primes_up_to
from ntcert.exact import ellcurve
from ntcert.exact.finitefield import PrimeField
from ntcert.exact.primes import factorize
from ntcert.exact.ellcurve import (
    FieldPoint,
    WeierstrassCurve,
    count_points_mod_p,
    is_good_prime,
    nontorsion_certificate,
    reduce_point_mod_p,
    trace_over_extension,
)
from ntcert.family import (
    ExtensionCertificate,
    closed_form_j,
    derive_family,
    enumerate_s_by_height,
    evaluate_fiber,
    fiber_at_s,
    point_from_fiber_data,
    scan_family,
    torsion_bound,
)
from witness_oracle import first_witness


def rational_point(curve: WeierstrassCurve, x, y) -> FieldPoint:
    """The point (x, y) of E(Q), over Q[x]/(x) as rational points are."""
    m = UniPoly.x()
    return FieldPoint.affine(curve, m, QuotientElem.constant(x, m), QuotientElem.constant(y, m))


def rationals(point: FieldPoint) -> tuple[Fraction, Fraction]:
    """The coordinates of an affine rational point."""
    return point.x.rep.coefficient(0), point.y.rep.coefficient(0)


def three_torsion(params: WeierstrassCurve) -> FieldPoint:
    """The rational point (0, a4/a1) of the family's curve."""
    return rational_point(params, 0, params.a4 / params.a1)


def fiber_point(params: WeierstrassCurve, s) -> FieldPoint:
    """The point (theta, t) over Q[theta]/(fiber) at s."""
    return point_from_fiber_data(params, fiber_at_s(params, s))


def fiber_row(fd) -> tuple[int, int]:
    """The fiber's head row, as evaluate_fiber builds it."""
    return cubicfield.head_row(cubicfield.CubicField(fd.fiber, fd.disc, fd.sqrt_disc, GaloisClass.C3))


def split_primes(fd):
    """The candidate primes evaluate_fiber gives the non-torsion walk."""
    return family._split_primes(fd, fiber_row(fd))


def fiber_torsion_bound(params, fd, primes=2):
    return torsion_bound(params, fd, fiber_row(fd), primes)


def random_params(rng) -> WeierstrassCurve:
    while True:
        a1 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        a4 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if a1 == 0 or a4 == 0:
            continue
        try:
            return derive_family(a1, a4)
        except InvalidInputError:
            continue


def rational_curve_through(rng, points, a1=None, a3=None):
    """Fit a2, a4, a6 through three affine points by solving a linear system."""
    a1 = Fraction(rng.randint(-3, 3)) if a1 is None else a1
    a3 = Fraction(rng.randint(-3, 3)) if a3 is None else a3
    (x1, y1), (x2, y2), (x3, y3) = points
    # y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    rows = [
        [x1 * x1, x1, Fraction(1), y1 * y1 + a1 * x1 * y1 + a3 * y1 - x1**3],
        [x2 * x2, x2, Fraction(1), y2 * y2 + a1 * x2 * y2 + a3 * y2 - x2**3],
        [x3 * x3, x3, Fraction(1), y3 * y3 + a1 * x3 * y3 + a3 * y3 - x3**3],
    ]
    # gaussian elimination
    for col in range(3):
        pivot = next((r for r in range(col, 3) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(3):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    a2, a4, a6 = rows[0][3], rows[1][3], rows[2][3]
    try:
        return WeierstrassCurve(a1, a2, a3, a4, a6)
    except Exception:
        return None


# -- family derivation and j ----------------------------------------------------


def test_derive_family_example():
    params = derive_family(1, 1)
    assert params.a6 == Fraction(-131, 108)
    assert params.a3 == Fraction(-239, 108)


def test_derive_family_errors():
    with pytest.raises(InvalidInputError, match="a1 and a4 must be nonzero"):
        derive_family(1, 0)
    with pytest.raises(InvalidInputError, match="a1 and a4 must be nonzero"):
        derive_family(0, 1)


def test_j_examples():
    assert derive_family(1, 1).j == Fraction(-42592000, 12167)
    assert derive_family(1, 2).j == Fraction(-42592000, 12167)
    # plugging a1 = 2 into the closed form: 256 * 70^3 * 16 / 37^3
    assert closed_form_j(2) == Fraction(256 * 70**3 * 16, 37**3)
    assert derive_family(2, 5).j == closed_form_j(2)


def test_j_independent_of_a4_random():
    rng = random.Random(70)
    for _ in range(25):
        curve = random_params(rng)
        assert curve.j == closed_form_j(curve.a1)
        other = derive_family(curve.a1, curve.a4 + 1) if curve.a4 != -1 else None
        if other is not None:
            assert other.j == curve.j


# -- fibers ---------------------------------------------------------------------


def test_fiber_at_zero():
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 0)
    assert fd.u == 1 and fd.v == 0
    assert fd.u**2 + 3 * fd.v**2 == 1


def test_fiber_example_s_one():
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    assert (fd.u, fd.v) == (Fraction(-1, 2), Fraction(1, 2))
    assert fd.t == Fraction(157, 108)
    assert fd.disc == fd.sqrt_disc**2


def test_fiber_discriminant_identity_random():
    rng = random.Random(71)
    for _ in range(20):
        params = random_params(rng)
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            fd = fiber_at_s(params, s)
        except DegenerateFiberError:
            continue
        p = params.a4 - params.a1 * fd.t
        assert fd.fiber.discriminant() == fd.u**2 * p**2
        assert fd.disc == fd.sqrt_disc**2


@pytest.mark.parametrize("a1, a4", [(1, 1), (2, 3), (Fraction(3, 2), 1)])
def test_closed_form_discriminant_matches_the_resultant(a1, a4):
    """fiber_at_s's -4p^3 - 27q^2 is the generic resultant discriminant of
    every fiber to height 8."""
    params = derive_family(a1, a4)
    checked = 0
    for s in enumerate_s_by_height(8):
        try:
            fd = fiber_at_s(params, s)
        except DegenerateFiberError:
            continue
        assert fd.disc == fd.fiber.discriminant(), s
        checked += 1
    assert checked >= 80


def test_generated_fibers_are_cyclic():
    params = derive_family(1, 1)
    for s in enumerate_s_by_height(4):
        fd = fiber_at_s(params, s)
        if fd.fiber.rational_roots():
            continue
        assert galois_class(fd.fiber).galois_class is GaloisClass.C3


# -- points and the group law ------------------------------------------------------


def test_rational_3_torsion_examples():
    params = derive_family(1, 1)
    P = three_torsion(params)
    assert rationals(P) == (0, 1)
    assert P + P == -P
    assert P.scalar_mul(3).is_infinity and not P.scalar_mul(2).is_infinity

    P23 = three_torsion(derive_family(2, 3))
    assert rationals(P23) == (0, Fraction(3, 2))
    assert P23 + P23 == -P23
    assert P23.scalar_mul(3).is_infinity


def test_rational_3_torsion_random():
    rng = random.Random(72)
    for _ in range(10):
        params = random_params(rng)
        P = three_torsion(params)
        assert not (P + P).is_infinity
        assert (P + P) == -P
        assert P.scalar_mul(3).is_infinity


def test_point_from_fiber_on_curve():
    params = derive_family(1, 1)
    P = fiber_point(params, 1)
    assert P._on_curve()
    assert P.x.rep == UniPoly.x() and P.y.rep == UniPoly.constant(Fraction(157, 108))


def test_evaluate_fiber_rejects_a_fiber_with_a_rational_root():
    # no reducible fiber exists for (1,1) up to height 20 (the scan records
    # skipped_reducible = 0); at (3/2, 1), s = -1 and -1/3 share a fiber that
    # has a rational root and does not degenerate
    curve = derive_family(Fraction(3, 2), 1)
    assert fiber_at_s(curve, -1).fiber.rational_roots()
    assert evaluate_fiber(curve, [Fraction(-1), Fraction(-1, 3)]) == "reducible"


def test_group_identity_and_inverse():
    params = derive_family(1, 1)
    P = three_torsion(params)
    O = P.scalar_mul(0)
    assert O.is_infinity
    assert P + O == P and O + P == P
    assert (P + (-P)).is_infinity
    assert P.scalar_mul(-2) == -(P + P)


def test_group_law_commutative_associative_over_q():
    rng = random.Random(73)
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 2000, "curve fitting kept failing"
        pts = [
            (
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            for _ in range(3)
        ]
        if len({x for x, _ in pts}) < 3:
            continue
        curve = rational_curve_through(rng, pts)
        if curve is None:
            continue
        P, Q, R = (rational_point(curve, x, y) for x, y in pts)
        assert P + Q == Q + P
        assert (P + Q) + R == P + (Q + R)
        done += 1


def test_group_law_associative_over_cubic_field():
    """Combinations of the fiber point and the 3-torsion point give plenty
    of distinct field points on one curve for exact group-law checks."""
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    P = point_from_fiber_data(params, fd)
    T_rat = three_torsion(params)
    mod = fd.fiber
    T = FieldPoint.affine(
        params,
        mod,
        QuotientElem.constant(rationals(T_rat)[0], mod),
        QuotientElem.constant(rationals(T_rat)[1], mod),
    )
    pool = [P, P + P, P + T, P + P + T, (-P) + T, P + P + P, T + T + P]
    assert all(pt._on_curve() for pt in pool if not pt.is_infinity)
    rng = random.Random(74)
    for _ in range(50):
        A, B, C = (rng.choice(pool) for _ in range(3))
        assert A + B == B + A
        assert (A + B) + C == A + (B + C)


def test_incompatible_points_rejected():
    params = derive_family(1, 1)
    P = three_torsion(params)
    Q = fiber_point(params, 1)
    with pytest.raises(InvalidInputError, match="points on different curves or fields"):
        P + Q


# -- reduction and torsion ----------------------------------------------------------


def modp_add(curve, P, Q, p):
    """Independent affine addition over F_p written directly on integers."""
    a1, a2, a3, a4, a6 = (
        c.numerator * pow(c.denominator, -1, p) % p for c in curve.a_invariants
    )
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2 + a1 * x1 + a3) % p == 0:
        return None
    if x1 == x2:
        inv = pow((2 * y1 + a1 * x1 + a3) % p, -1, p)
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv % p
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) * inv % p
    else:
        inv = pow((x2 - x1) % p, -1, p)
        lam = (y2 - y1) * inv % p
        nu = (y1 * x2 - y2 * x1) * inv % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (-(lam + a1) * x3 - nu - a3) % p
    return (x3, y3)


def reduce_rational_point(point, p):
    x, y = rationals(point)
    return (
        x.numerator * pow(x.denominator, -1, p) % p,
        y.numerator * pow(y.denominator, -1, p) % p,
    )


def test_reduction_compatible_with_addition():
    rng = random.Random(75)
    done = 0
    attempts = 0
    while done < 20:
        attempts += 1
        assert attempts < 2000, "curve fitting kept failing"
        pts = [
            (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            for _ in range(2)
        ]
        if pts[0][0] == pts[1][0]:
            continue
        third = (pts[0][0] + 7, pts[1][1] + 3)
        curve = rational_curve_through(rng, pts + [third])
        if curve is None:
            continue
        p = next(
            (q for q in (5, 7, 11, 13, 17, 19, 23, 29) if is_good_prime(curve, q)),
            None,
        )
        if p is None:
            continue
        P = rational_point(curve, *pts[0])
        Q = rational_point(curve, *pts[1])
        S = P + Q
        if S.is_infinity:
            exact = None
        else:
            xs, ys = rationals(S)
            if xs.denominator % p == 0 or ys.denominator % p == 0:
                continue
            exact = reduce_rational_point(S, p)
        assert exact == modp_add(
            curve, reduce_rational_point(P, p), reduce_rational_point(Q, p), p
        )
        done += 1


def fp_coords(point):
    """The int coordinates of a point over F_p; None at infinity."""
    return None if point.is_infinity else (point.x, point.y)


def residue(c: Fraction, p: int) -> int:
    """The residue mod p of a p-integral rational."""
    return c.numerator * pow(c.denominator, -1, p) % p


def roots_mod_p(f: UniPoly, p: int) -> int:
    """The roots in F_p of a p-integral f, by evaluation at every residue."""
    return count_distinct_roots(f.coeffs, p)


def test_reduction_commutes_with_the_group_law_over_fp():
    """reduce(k*P) == k*reduce(P) and |E(F_p)| kills reduce(P); at a good
    prime where the fiber has no root mod p, P does not reduce."""
    checked = rootless = 0
    for a1, a4 in ((1, 1), (2, 3)):
        curve = derive_family(a1, a4)
        for s in enumerate_s_by_height(2):
            fd = fiber_at_s(curve, s)
            if fd.fiber.rational_roots():
                continue
            P = point_from_fiber_data(curve, fd)
            multiples = {k: P.scalar_mul(k) for k in range(2, 6)}
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
                reduced = reduce_point_mod_p(P, p)
                if reduced is None:
                    if is_good_prime(curve, p) and all(c.denominator % p for c in fd.fiber.coeffs):
                        assert roots_mod_p(fd.fiber, p) == 0, (s, p)
                        rootless += 1
                    continue
                Pbar, order = reduced
                assert Pbar.field == PrimeField(p) and order == count_points_mod_p(curve, p)
                assert Pbar.scalar_mul(order).is_infinity
                base = oracle = fp_coords(Pbar)
                for k, kP in multiples.items():
                    kPbar = Pbar.scalar_mul(k)
                    # the integer law above is an independent oracle over F_p
                    oracle = modp_add(curve, oracle, base, p)
                    assert oracle == fp_coords(kPbar)
                    image = reduce_point_mod_p(kP, p)
                    if image is None:
                        continue  # k*P is not integral at every prime above p
                    assert image == (kPbar, order)
                    checked += 1
    assert checked >= 20 and rootless >= 20, (checked, rootless)


def test_the_walk_is_the_reduction_of_the_exact_multiples():
    """At the first three primes where each point to height 4 reduces, the
    walk's k-th point is the reduction of k*P under the exact Q[theta] law,
    k <= 6: k*Pbar is (k mod o)*Pbar when the walk meets O at o, and o*P
    does not reduce there (it is not integral at that prime).  Where the
    walk meets no O, its annihilation test at |E(F_p)| agrees with
    scalar_mul."""
    walks = annihilations = 0
    for a1, a4 in ((1, 1), (2, 3)):
        params = derive_family(a1, a4)
        for s in enumerate_s_by_height(4):
            fd = fiber_at_s(params, s)
            if fd.fiber.rational_roots():
                continue
            P = point_from_fiber_data(params, fd)
            exact = [P]
            for _ in range(5):
                exact.append(exact[-1] + P)
            used = 0
            for p in primes_up_to(200):
                reduced = reduce_point_mod_p(P, p)
                if reduced is None:
                    continue
                Pbar, group_order = reduced
                used += 1
                walk = ellcurve._walk(Pbar, 6)
                o = len(walk) + 1 if len(walk) < 6 else None
                for k, kP in enumerate(exact, 1):
                    image = reduce_point_mod_p(kP, p)
                    if o and k % o == 0:
                        assert image is None, (s, p, k)
                    elif image is not None:  # else k*P is not integral at every prime above p
                        assert image == (Pbar._sibling(walk[(k % o if o else k) - 1]), group_order)
                        walks += 1
                if o is None:
                    kills = Pbar.scalar_mul(group_order).is_infinity
                    assert ellcurve._annihilates(Pbar, walk, group_order) is kills is True
                    annihilations += 1
                if used == 3:
                    break
            assert used == 3, s
    assert walks >= 200 and annihilations >= 20, (walks, annihilations)


def test_point_count_contains_three_torsion():
    curve = derive_family(1, 1)
    for p in (5, 7, 11, 13):
        assert is_good_prime(curve, p)
        assert count_points_mod_p(curve, p) % 3 == 0


def test_trace_recursion_trivial_case():
    # a_p = 0 gives a_{p,3} = 0, so the cubic-extension group order is p^3 + 1
    for p in (5, 7, 11):
        assert trace_over_extension(0, p, 3) == 0
        assert trace_over_extension(2, p, 0) == 2


def test_trace_recursion_against_brute_force_extension_count():
    """Count E(F_{p^3}) by enumeration and compare with the trace recursion."""
    curve = derive_family(1, 1)
    p = 5
    a_p = p + 1 - count_points_mod_p(curve, p)
    predicted = p**3 + 1 - trace_over_extension(a_p, p, 3)

    mod = UniPoly((1, 1, 0, 1))  # x^3 + x + 1, rootless hence irreducible mod 5
    assert count_distinct_roots(mod.coeffs, p) == 0

    def reduced(f: UniPoly) -> tuple:
        """f in F_5[x]/(x^3 + x + 1) as a residue triple: mod is monic and f
        integral, so the remainder over Q, reduced mod 5, is the one over F_5."""
        r = f % mod
        return tuple(r.coefficient(i) % p for i in range(3))

    elements = [UniPoly((c0, c1, c2)) for c0 in range(p) for c1 in range(p) for c2 in range(p)]
    a1, a2, a3, a4, a6 = (residue(c, p) for c in curve.a_invariants)
    count = 1  # infinity
    for x in elements:
        rhs = reduced(((x + a2) * x + a4) * x + a6)
        a = a1 * x + a3
        count += sum(reduced((y + a) * y) == rhs for y in elements)
    assert count == predicted


def test_torsion_bound_symmetric_and_divisible_by_three():
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    primes = fiber_torsion_bound(params, fd, 2)[1][:2]  # the two smallest usable primes
    b1, _ = fiber_torsion_bound(params, fd, primes)
    b2, _ = fiber_torsion_bound(params, fd, list(reversed(primes)))
    assert b1 == b2
    assert b1 % 3 == 0
    for s in enumerate_s_by_height(3):
        fd = fiber_at_s(params, s)
        if fd.fiber.rational_roots():
            continue
        bound, ps = fiber_torsion_bound(params, fd, 2)
        assert bound % 3 == 0
        assert fiber_torsion_bound(params, fd, ps) == (bound, ps)  # a count and its list agree


def test_torsion_bound_prime_validation():
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    with pytest.raises(InvalidInputError, match="at least two distinct primes"):
        fiber_torsion_bound(params, fd, [5])
    with pytest.raises(InvalidInputError, match="23 is not a good-reduction prime"):
        fiber_torsion_bound(params, fd, [5, 23])  # 23 divides the family disc
    with pytest.raises(InvalidInputError, match="7 ramifies in the fiber cubic"):
        fiber_torsion_bound(params, fd, [5, 7])  # 7 ramifies in this fiber


def test_nontorsion_certificate_examples():
    params = derive_family(1, 1)
    P = three_torsion(params)
    assert nontorsion_certificate(P, 3, iter_primes(5)) is False
    assert nontorsion_certificate(P, 2, iter_primes(5)) is True
    assert nontorsion_certificate(P.scalar_mul(3), 1, iter_primes(5)) is False  # identity input
    fd = fiber_at_s(params, 1)
    bound, _ = fiber_torsion_bound(params, fd)
    assert nontorsion_certificate(point_from_fiber_data(params, fd), bound, split_primes(fd)) is True


def test_nontorsion_certificate_matches_naive_scan():
    params = derive_family(1, 1)
    P = three_torsion(params)
    for k in range(2, 5):
        Pk = P  # order 3: naive truth is k >= 3
        naive = all(not Pk.scalar_mul(j).is_infinity for j in range(1, k + 1))
        assert nontorsion_certificate(Pk, k, iter_primes(5)) == naive


def test_reduce_point_mod_p_stays_on_curve():
    params = derive_family(1, 1)
    Q = fiber_point(params, 1)
    p = next(split_primes(fiber_at_s(params, 1)))
    reduced = reduce_point_mod_p(Q, p)
    assert reduced is not None
    point, order = reduced
    assert point._on_curve()
    assert order == count_points_mod_p(params, p)


def test_reduction_skips_a_prime_in_a_denominator_of_the_modulus():
    """With phi = theta/5 the point (5*phi, t) lies over Q[phi]/(f(5x)/125),
    whose modulus is not 5-integral: 5 is skipped, 7 is used, as for theta."""
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    m = fd.fiber.compose(UniPoly((0, 5))) * Fraction(1, 125)
    phi = QuotientElem(UniPoly((0, 5)), m, validate=False)
    P = FieldPoint.affine(params, m, phi, QuotientElem.constant(fd.t, m))
    assert reduce_point_mod_p(P, 5) is None
    Pbar, order = reduce_point_mod_p(P, 7)
    assert order == reduce_point_mod_p(fiber_point(params, 1), 7)[1]
    assert Pbar._on_curve()


def test_reduction_skips_a_prime_where_a_quadratic_modulus_has_no_root():
    """A point over a quadratic field reduces only where its modulus has a
    root mod p, as a point over a cyclic cubic field does, and the
    non-torsion walk, which uses only those primes, stays sound."""
    curve = derive_family(1, 1)
    a1, a2, a3, a4, a6 = curve.a_invariants
    x = -3
    # y^2 + (a1*x + a3)*y - (x^3 + a2*x^2 + a4*x + a6), irreducible over Q
    m = UniPoly((-(x**3 + a2 * x**2 + a4 * x + a6), a1 * x + a3, 1))
    assert m.degree == 2 and not m.rational_roots()
    P = FieldPoint.affine(curve, m, QuotientElem.constant(x, m), QuotientElem(UniPoly((0, 1)), m))
    assert reduce_point_mod_p(P, 5) is None
    Pbar, order = reduce_point_mod_p(P, 11)
    assert Pbar.field == PrimeField(11) and Pbar._on_curve()
    assert order == count_points_mod_p(curve, 11)
    for bound in range(1, 9):
        naive = all(not P.scalar_mul(k).is_infinity for k in range(1, bound + 1))
        assert nontorsion_certificate(P, bound, iter_primes(5)) == naive


# -- the scan -------------------------------------------------------------------------


def test_enumerate_s_by_height_order():
    values = enumerate_s_by_height(2)
    assert values == [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]
    for v in enumerate_s_by_height(7):
        assert max(abs(v.numerator), v.denominator) <= 7


def test_scan_family_small():
    params = derive_family(1, 1)
    result = scan_family(params, 4, witness_bound=500)
    summary = result.summary()
    assert summary["fibers_tested"] == len(enumerate_s_by_height(4))
    assert summary["accepted"] == len(result.certificates)
    assert summary["accepted"] >= 10
    for cert in result.certificates:
        assert cert.disc == cert.sqrt_disc**2
        assert cert.galois_class is GaloisClass.C3
        assert cert.nontorsion_checked_to >= cert.torsion_bound
    # each accepted fiber carries one witness prime per previously accepted fiber
    for i, cert in enumerate(result.certificates):
        assert type(cert.witnesses) is tuple and len(cert.witnesses) == i
        assert all(type(p) is int for p in cert.witnesses)


def test_certificate_class_is_a_constant_not_a_field():
    assert "galois_class" not in ExtensionCertificate._fields
    assert ExtensionCertificate.galois_class is GaloisClass.C3


def test_scan_family_parallel_matches_serial():
    for a1 in (1, Fraction(3, 2)):
        params = derive_family(a1, 1)
        serial = scan_family(params, 3)
        parallel = scan_family(params, 3, jobs=2)
        assert serial.summary() == parallel.summary()
        assert [c.s for c in serial.certificates] == [c.s for c in parallel.certificates]
        assert serial.certificates == parallel.certificates


def test_scan_family_counts_reducible_and_presumed_equal_fibers():
    params = derive_family(Fraction(3, 2), 1)
    summary = scan_family(params, 3).summary()
    assert (summary["fibers_tested"], summary["accepted"]) == (15, 9)
    assert (summary["skipped_reducible"], summary["skipped_presumed_equal"]) == (2, 4)
    assert summary["skipped_torsion"] == 0
    reducible = [s for s in enumerate_s_by_height(3) if evaluate_fiber(params, [s]) == "reducible"]
    assert reducible == [Fraction(-1), Fraction(-1, 3)]
    # s = -1 and -1/3 share v: one group, one evaluation, two skips
    assert evaluate_fiber(params, [Fraction(-1), Fraction(-1, 3)]) == "reducible"


def test_scan_family_counts_torsion_skips(monkeypatch):
    monkeypatch.setattr(family, "nontorsion_certificate", lambda P, bound, primes: False)
    result = scan_family(derive_family(1, 1), 2)
    assert result.certificates == []
    assert result.skipped_torsion == result.fibers_tested == len(enumerate_s_by_height(2))


def test_point_count_against_direct_equation_oracle():
    """Count points by brute force on the raw Weierstrass equation mod p."""
    rng = random.Random(76)
    for _ in range(8):
        curve = random_params(rng)
        p = next((q for q in (5, 7, 11, 13, 17, 19, 23, 29, 31) if is_good_prime(curve, q)), None)
        if p is None:
            continue
        a1, a2, a3, a4, a6 = (
            c.numerator * pow(c.denominator, -1, p) % p for c in curve.a_invariants
        )
        direct = 1  # infinity
        for x in range(p):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
            for y in range(p):
                if (y * y + a1 * x * y + a3 * y) % p == rhs:
                    direct += 1
        assert count_points_mod_p(curve, p) == direct


def test_group_law_vertical_cases():
    # y^2 = x^3 - x has rational 2-torsion at (0,0), (1,0), (-1,0)
    curve = WeierstrassCurve(0, 0, 0, -1, 0)
    for x0 in (0, 1, -1):
        P = rational_point(curve, x0, 0)
        assert (P + P).is_infinity
    P = rational_point(curve, 0, 0)
    Q = rational_point(curve, 1, 0)
    R = P + Q
    assert R == rational_point(curve, -1, 0)
    assert (P + (-P)).is_infinity


def test_nontorsion_certificate_exhaustive_small_bounds():
    """Reduction-shortcut decision must equal the naive incremental scan for
    torsion points, non-torsion points, and the identity, at every small bound."""
    params = derive_family(1, 1)
    torsion3 = three_torsion(params)
    two_torsion_curve = WeierstrassCurve(0, 0, 0, -1, 0)
    order2 = rational_point(two_torsion_curve, 0, 0)
    fiber_pt = fiber_point(params, 1)
    identity = torsion3.scalar_mul(3)
    for P in (torsion3, order2, fiber_pt, identity):
        for bound in range(1, 9):
            naive = True
            acc = P
            for _ in range(bound):
                if acc.is_infinity:
                    naive = False
                    break
                acc = acc + P
            assert nontorsion_certificate(P, bound, iter_primes(5)) == naive, (P, bound)


# -- the non-torsion walk and the point path ------------------------------------------


def factor_stripping_order(Pbar, group_order):
    """The exact order of Pbar by the older route: strip prime factors off |E(F_{p^d})|."""
    o = group_order
    for ell in factorize(group_order):
        while o % ell == 0 and Pbar.scalar_mul(o // ell).is_infinity:
            o //= ell
    return o


def walk_order(Pbar, bound):
    """The order of Pbar if the walk meets O by bound*Pbar, else None."""
    walked = len(ellcurve._walk(Pbar, bound))
    return walked + 1 if walked < bound else None


def test_walk_matches_factor_stripping_order_and_naive_nontorsion():
    walked = {"order": 0, "none": 0}
    for a1, a4 in ((1, 1), (2, 3)):
        params = derive_family(a1, a4)
        for s in enumerate_s_by_height(3):
            fd = fiber_at_s(params, s)
            if fd.fiber.rational_roots():
                continue
            P = point_from_fiber_data(params, fd)
            bound, _ = fiber_torsion_bound(params, fd)
            for p in primes_up_to(31):
                reduced = reduce_point_mod_p(P, p)
                if reduced is None:
                    continue
                Pbar, group_order = reduced
                assert Pbar.scalar_mul(group_order).is_infinity
                oracle = factor_stripping_order(Pbar, group_order)
                if oracle <= bound:
                    assert walk_order(Pbar, bound) == oracle
                    assert walk_order(Pbar, oracle) == oracle
                    assert walk_order(Pbar, oracle - 1) is None
                    walked["order"] += 1
                else:
                    assert walk_order(Pbar, bound) is None
                    walked["none"] += 1
            # naive exact check over Q[theta]: k*P != O for k = 1..bound
            multiple, naive = P, True
            for _ in range(bound - 1):
                multiple = multiple + P
                naive = naive and not multiple.is_infinity
            assert nontorsion_certificate(P, bound, split_primes(fd)) is naive is True
    assert walked["order"] >= 10 and walked["none"] >= 10, walked


def test_nontorsion_certificate_checks_annihilation_at_the_first_usable_prime(monkeypatch):
    """A group order that does not kill Pbar fails the certificate, whether or
    not the walk at that prime found the order of Pbar."""
    real = reduce_point_mod_p
    usable = []

    def off_by_one(P, p):
        reduced = real(P, p)
        if reduced is None:
            return None
        usable.append(p)
        return reduced[0], reduced[1] + 1

    monkeypatch.setattr(ellcurve, "reduce_point_mod_p", off_by_one)
    walk_found_order = set()
    params = derive_family(1, 1)
    for s in enumerate_s_by_height(3):
        fd = fiber_at_s(params, s)
        P = point_from_fiber_data(params, fd)
        bound, _ = fiber_torsion_bound(params, fd)
        usable.clear()
        with pytest.raises(VerificationError, match="does not annihilate"):
            nontorsion_certificate(P, bound, split_primes(fd))
        assert len(usable) == 1
        Pbar, _ = real(P, usable[0])
        walk_found_order.add(walk_order(Pbar, bound) is not None)
    assert walk_found_order == {True, False}


def test_annihilation_from_the_walk_matches_scalar_mul():
    """q*(B*Pbar) + r*Pbar = O, with r*Pbar read from the walk, decides
    n*Pbar = O as the binary method does, at the group order and next to it,
    for every reduced point to height 4 whose walk meets no O up to B."""
    checked = {True: 0, False: 0}
    for a1, a4 in ((1, 1), (2, 3)):
        params = derive_family(a1, a4)
        for s in enumerate_s_by_height(4):
            fd = fiber_at_s(params, s)
            if fd.fiber.rational_roots():
                continue
            P = point_from_fiber_data(params, fd)
            bound, _ = fiber_torsion_bound(params, fd)
            for p in primes_up_to(31):
                reduced = reduce_point_mod_p(P, p)
                if reduced is None:
                    continue
                Pbar, group_order = reduced
                for B in (1, 2, bound):
                    multiples = ellcurve._walk(Pbar, B)
                    if len(multiples) < B:
                        continue
                    for n in (group_order - 1, group_order, group_order + 1):
                        kills = Pbar.scalar_mul(n).is_infinity
                        assert ellcurve._annihilates(Pbar, multiples, n) is kills, (s, p, B, n)
                        checked[kills] += 1
    assert checked[True] >= 100 and checked[False] >= 200, checked


def no_inert_head_prime(params, s):
    """Whether the fiber at s splits completely at every good prime up to 97."""
    fd = fiber_at_s(params, s)
    return head_row(cubicfield.CubicField(fd.fiber, fd.disc, fd.sqrt_disc, GaloisClass.C3))[1] == 0


def test_scan_tests_each_fiber_for_rational_roots_once(monkeypatch):
    """One rational-root test per evaluated fiber with no inert head prime
    (an inert prime rules out a rational root), one fiber_at_s per s and no
    generic discriminant: fiber_at_s computes the closed form -4p^3 - 27q^2,
    which the torsion primes and the C3 class reuse.  A repeated fiber
    re-runs only fiber_at_s, once, in its group."""
    calls = {"rational_roots": 0, "discriminant": 0, "fiber_at_s": 0}
    for name in ("rational_roots", "discriminant"):
        real = getattr(UniPoly, name)

        def counted(self, real=real, name=name):
            calls[name] += 1
            return real(self)

        monkeypatch.setattr(UniPoly, name, counted)

    def fiber(params, s, real=fiber_at_s):
        calls["fiber_at_s"] += 1
        return real(params, s)

    monkeypatch.setattr(family, "fiber_at_s", fiber)
    evaluated = []

    def evaluate(params, same_v, torsion_primes):
        evaluated.append(same_v[0])
        return evaluate_fiber(params, same_v, torsion_primes)

    monkeypatch.setattr(family, "evaluate_fiber", evaluate)
    result = scan_family(derive_family(1, 1), 4)
    assert result.fibers_tested == len(enumerate_s_by_height(4)) == 23
    assert len(evaluated) == 17
    # every fiber there has an inert head prime
    assert calls == {"rational_roots": 0, "discriminant": 0, "fiber_at_s": 23}
    # s = -1 is reducible, so splits at every prime: the one rational-root
    # test; its repeat -1/3 is checked in its group by one fiber_at_s, and the
    # fiber at -1 is not built again
    calls.update(rational_roots=0, fiber_at_s=0)
    evaluated.clear()
    params = derive_family(Fraction(3, 2), 1)
    result = scan_family(params, 3)
    assert result.fibers_tested == len(enumerate_s_by_height(3)) == 15
    assert len(evaluated) == 11
    assert calls == {"rational_roots": 1, "discriminant": 0, "fiber_at_s": 15}
    monkeypatch.undo()
    assert [s for s in evaluated if no_inert_head_prime(params, s)] == [-1]


def test_point_construction_rejects_a_point_off_the_curve():
    params = derive_family(1, 1)
    fd = fiber_at_s(params, 1)
    assert point_from_fiber_data(params, fd).y.rep == UniPoly.constant(fd.t)
    with pytest.raises(VerificationError, match="off the curve"):
        point_from_fiber_data(params, fd._replace(t=fd.t + 1))


def test_equal_params_give_equal_equally_hashed_curves():
    """exact.ellcurve's per-prime caches key on the curve, so two derivations
    from equal params share their entries."""
    curve = derive_family(1, 1)
    again = derive_family(Fraction(2, 2), Fraction(3, 3))
    assert again is not curve and again == curve and hash(again) == hash(curve)
    assert derive_family(2, 3) != curve
    count_points_mod_p.cache_clear()
    assert count_points_mod_p(curve, 5) == count_points_mod_p(again, 5)
    assert count_points_mod_p.cache_info().hits == 1


# -- the split-type matrix fold and repeated fibers -------------------------------------


def c3_fields_up_to_height(params, height):
    """The C3 field of every irreducible fiber at height <= `height`, repeats included."""
    fields = []
    for s in enumerate_s_by_height(height):
        try:
            fields.append(galois_class(fiber_at_s(params, s).fiber))
        except (DegenerateFiberError, InvalidInputError):  # x^3, or a rational root
            pass
    return fields


def head_row(K):
    """K's split-type row at the primes up to 97, as cubicfield.head_row builds it."""
    return cubicfield._split_codes(K, primes_up_to(97))


def admit_against_pairwise_oracle(fields, bound):
    """Admit each field into one SplitTypeMatrix and check it against
    first_witness for every accepted field: the same witness primes, or None
    exactly when the oracle finds no witness against one of them.  Returns
    the witness primes and the number of rejected fields."""
    matrix = cubicfield.SplitTypeMatrix(bound)
    accepted, primes, rejected = [], [], 0
    for K in fields:
        oracle = tuple(first_witness(prev, K, bound) for prev in accepted)
        witnesses = matrix.admit(K, head_row(K))
        if None in oracle:
            assert witnesses is None
            rejected += 1
        else:
            assert witnesses == oracle
            primes += witnesses
            accepted.append(K)
    return primes, rejected


@pytest.mark.parametrize("bound", [2, 50, 97, 98, 1000])
def test_matrix_witnesses_match_distinctness_witness(bound):
    for a1, a4 in ((1, 1), (2, 3)):
        primes, rejected = admit_against_pairwise_oracle(
            c3_fields_up_to_height(derive_family(a1, a4), 8), bound
        )
        assert rejected >= 18 and (bound == 2 or len(primes) >= 100)


def recording_rows(monkeypatch):
    """Record (field, number of primes) for every split-type row built."""
    real = cubicfield._split_codes
    built = []

    def codes(K, primes):
        built.append((K, len(primes)))
        return real(K, primes)

    monkeypatch.setattr(cubicfield, "_split_codes", codes)
    return built


def agrees_at_every_head_prime(i, fields, head):
    """Whether fields[i] agrees at every prime in `head` with another entry."""
    rows = [cubicfield._split_codes(K, head) for K in fields]
    return any(
        j != i and cubicfield._first_difference(rows[i], row) is None
        for j, row in enumerate(rows)
    )


@pytest.mark.parametrize("bound", [50, 1000])
def test_lazy_rows_match_distinctness_witness_past_a_short_first_stage(monkeypatch, bound):
    """With head rows at the primes up to 7, many pairs are told apart only
    past the head.  The matrix builds a field's whole row only when it agrees
    with another field at every head prime, and at most once per field."""
    monkeypatch.setattr(cubicfield, "_FIRST_STAGE", 7)
    fields = c3_fields_up_to_height(derive_family(1, 1), 8)
    primes, rejected = admit_against_pairwise_oracle(fields, bound)
    assert sum(p > 7 for p in primes) >= 100 and rejected >= 18
    # the same fold again, from rows at the primes up to 97, recording the rows it builds
    head = primes_up_to(7)
    rows = [head_row(K) for K in fields]
    built = recording_rows(monkeypatch)
    matrix = cubicfield.SplitTypeMatrix(bound)
    for K, row in zip(fields, rows):
        matrix.admit(K, row)
    monkeypatch.undo()
    whole = [K for K, n in built if n > len(head)]
    # `fields` holds each repeated fiber's field again as an equal object,
    # which the matrix admits anew: so count whole rows per admitted object
    assert len(whole) == len({id(K) for K in whole}) >= 10
    for K in whole:
        assert agrees_at_every_head_prime(fields.index(K), fields, head), K.defining


def recording_admits(monkeypatch, built):
    """Record (field, witnesses, whole rows built) for every admit call."""
    real = cubicfield.SplitTypeMatrix.admit
    admits = []

    def admit(self, K, row):
        before = len(built)
        witnesses = real(self, K, row)
        admits.append((K, witnesses, built[before:]))
        return witnesses

    monkeypatch.setattr(cubicfield.SplitTypeMatrix, "admit", admit)
    return admits


def test_scan_fold_makes_no_pairwise_calls_and_extends_rows_lazily(monkeypatch):
    """A head row per field, and a whole row only for a field that agrees
    with an accepted one at every head prime and is no scaling of it: at
    height 8 every such tie is a scaling, so no whole row is built."""
    built = recording_rows(monkeypatch)
    result = scan_family(derive_family(1, 1), 8)
    monkeypatch.undo()
    head = primes_up_to(97)
    heads = [K for K, n in built if n == len(head)]
    # one head row per fiber that reaches the fold: every certificate of a first s
    assert len(heads) == result.fibers_tested - 18
    assert len(built) == len(heads)
    assert result.skipped_presumed_equal - 18 == 3  # three ties besides the repeats


def test_scaling_ties_are_proven_without_whole_rows(monkeypatch):
    """At height 20, (1, 1), each of the 18 fields the fold rejects is a
    scaling of an accepted field's cubic, and none builds a whole row; the
    whole rows built tell fields apart past 97.  At height 30 the one tie
    that is no scaling, s = 27/5 against the fiber of s = -7/4 and -4/21,
    compares whole rows."""
    curve = derive_family(1, 1)
    for height, unscaled in ((20, []), (30, [Fraction(27, 5)])):
        built = recording_rows(monkeypatch)
        admits = recording_admits(monkeypatch, built)
        scan_family(curve, height)
        monkeypatch.undo()
        rejected = [(K, rows) for K, witnesses, rows in admits if witnesses is None]
        assert len(rejected) == {20: 18, 30: 33}[height]
        assert [K for K, rows in rejected if rows] == [
            galois_class(fiber_at_s(curve, s).fiber) for s in unscaled
        ]
        assert all(max(witnesses) > 97 for _, witnesses, rows in admits if rows and witnesses)


def test_a_scaled_cubic_has_no_witness_and_is_rejected_without_a_whole_row(monkeypatch):
    """g = lambda^3 f(x/lambda) has the root lambda*theta in Q[theta]/(f): the
    whole rows of f and g show no witness at any prime <= 1000, and the fold
    rejects g without building either."""
    rng = random.Random(77)
    primes = primes_up_to(1000)
    checked = 0
    while checked < 12:
        curve = random_params(rng)
        try:
            fd = fiber_at_s(curve, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            f = galois_class(fd.fiber)
        except (DegenerateFiberError, InvalidInputError):
            continue
        lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        q, p = fd.fiber.coeffs[:2]
        g = galois_class(UniPoly((lam**3 * q, lam**2 * p, 0, 1)))
        assert cubicfield._scales_to(f.defining, g.defining)
        assert cubicfield._first_difference(
            cubicfield._split_codes(f, primes), cubicfield._split_codes(g, primes)
        ) is None
        matrix = cubicfield.SplitTypeMatrix()
        assert matrix.admit(f, head_row(f)) == ()
        row = head_row(g)
        built = recording_rows(monkeypatch)
        assert matrix.admit(g, row) is None
        monkeypatch.undo()
        assert built == []
        checked += 1


def test_repeated_fibers_are_evaluated_once_with_the_parents_counts(monkeypatch):
    groups, fibers = [], []
    real_evaluate, real_fiber = evaluate_fiber, fiber_at_s

    def evaluate(params, same_v, torsion_primes):
        groups.append(list(same_v))
        return real_evaluate(params, same_v, torsion_primes)

    def fiber(params, s):
        fibers.append(s)
        return real_fiber(params, s)

    monkeypatch.setattr(family, "evaluate_fiber", evaluate)
    monkeypatch.setattr(family, "fiber_at_s", fiber)
    result = scan_family(derive_family(1, 1), 8)
    summary = result.summary()
    assert summary["fibers_tested"] == 87 and len(groups) == 87 - 18
    assert (summary["accepted"], summary["skipped_presumed_equal"]) == (66, 21)
    # fiber_at_s once per s, in its group
    s_values = enumerate_s_by_height(8)
    assert sorted(fibers) == sorted(s for group in groups for s in group) == sorted(s_values)
    # one group per v = 2s/(1 + 3s^2), in enumeration order: s, then 1/(3s) if it repeats v
    firsts = [group[0] for group in groups]
    assert firsts == sorted(firsts, key=s_values.index)
    for group in groups:
        assert group == sorted(group, key=s_values.index)
        assert len(group) == 1 or group[1:] == [1 / (3 * group[0])]


def test_a_repeated_s_must_reproduce_the_kept_fiber(monkeypatch):
    real = fiber_at_s

    def shifted_at_one_third(params, s):
        fd = real(params, s)
        if s == Fraction(1, 3):  # shares v with s = 1, which comes first
            return fd._replace(fiber=fd.fiber + UniPoly.constant(1))
        return fd

    def degenerate_at_one_third(params, s):
        if s == Fraction(1, 3):
            raise DegenerateFiberError(f"fiber at s={s} degenerates to x^3")
        return real(params, s)

    for planted in (shifted_at_one_third, degenerate_at_one_third):
        monkeypatch.setattr(family, "fiber_at_s", planted)
        with pytest.raises(VerificationError, match="^s=1/3 and s=1 share v but not the fiber$"):
            scan_family(derive_family(1, 1), 3)


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_caps_the_workers_at_cores_and_fibers(monkeypatch):
    """This process is one worker and forks the others: workers - 1 forks."""
    real_fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(family.os, "fork", counted_fork)
    monkeypatch.setattr(family.os, "cpu_count", lambda: 64)
    serial = scan_family(derive_family(1, 1), 1)
    assert forks == []
    parallel = scan_family(derive_family(1, 1), 1, jobs=100000)
    assert parallel.summary() == serial.summary()
    assert parallel.certificates == serial.certificates
    assert len(forks) == 2  # s = -1, 0, 1: three values of v, so three workers
    monkeypatch.setattr(family.os, "cpu_count", lambda: 2)
    scan_family(derive_family(1, 1), 3, jobs=100000)
    assert len(forks) == 3
    monkeypatch.setattr(family.os, "cpu_count", lambda: None)
    scan_family(derive_family(1, 1), 3, jobs=2)
    assert len(forks) == 3
    assert_no_child_is_left()
    monkeypatch.delattr(family.os, "fork")
    monkeypatch.setattr(family.os, "cpu_count", lambda: 64)
    assert scan_family(derive_family(1, 1), 1, jobs=3).certificates == serial.certificates
    assert len(forks) == 3
    for jobs in (0, -1):
        with pytest.raises(InvalidInputError, match="jobs"):
            scan_family(derive_family(1, 1), 1, jobs=jobs)


def interrupt(fd):
    raise KeyboardInterrupt


@pytest.mark.parametrize("plant, error", [
    (None, None),  # success
    (lambda fd: fd._replace(fiber=fd.fiber + UniPoly.constant(1)), VerificationError),
    (interrupt, KeyboardInterrupt),
])
def test_no_child_is_left_on_any_way_out_of_a_forked_scan(monkeypatch, plant, error):
    """At height 12 a child's share outgrows the pipe, so a scan that stops at
    s = 1/3, in the group of s = 1 that this process evaluates, leaves it
    blocked on a write: it is killed, then reaped."""
    real = fiber_at_s

    def planted(params, s):
        fd = real(params, s)
        return plant(fd) if s == Fraction(1, 3) else fd

    if plant is not None:
        monkeypatch.setattr(family, "fiber_at_s", planted)
    if error is None:
        assert scan_family(derive_family(1, 1), 12, jobs=2).certificates
    else:
        with pytest.raises(error):
            scan_family(derive_family(1, 1), 12, jobs=2)
    assert_no_child_is_left()


@pytest.mark.parametrize("at", [Fraction(-1), Fraction(0)])  # groups 0 and 1: each worker
def test_a_workers_error_is_raised_at_its_fiber(monkeypatch, at):
    """An error in evaluate_fiber stops the scan at that fiber, as serial."""
    real = fiber_at_s

    def failing(params, s):
        if s == at:
            raise VerificationError(f"planted at s={s}")
        return real(params, s)

    monkeypatch.setattr(family, "fiber_at_s", failing)
    for jobs in (1, 2):
        with pytest.raises(VerificationError, match=f"planted at s={at}$"):
            scan_family(derive_family(1, 1), 3, jobs=jobs)
        assert_no_child_is_left()


def test_point_counts_and_reduced_invariants_are_cached_per_curve_and_prime(monkeypatch):
    """|E(F_p)| is counted once per prime the scan uses, for the torsion bound
    or the walk, and read from the cache for every other fiber."""
    params = derive_family(1, 1)
    used = set()
    real_bound, real_reduce = torsion_bound, reduce_point_mod_p

    def bound(*args):
        out = real_bound(*args)
        used.update(out[1])
        return out

    def reduce(P, p):
        out = real_reduce(P, p)
        if out is not None:
            used.add(p)
        return out

    monkeypatch.setattr(family, "torsion_bound", bound)
    monkeypatch.setattr(ellcurve, "reduce_point_mod_p", reduce)
    count_points_mod_p.cache_clear()
    scan_family(params, 4)
    monkeypatch.undo()
    info = count_points_mod_p.cache_info()
    assert info.misses == len(used) < info.hits
    # the cached invariants are the residues of the curve's a-invariants
    for s in enumerate_s_by_height(3):
        P = fiber_point(params, s)
        for p in primes_up_to(31):
            reduced = reduce_point_mod_p(P, p)
            if reduced is not None:
                assert reduced[0].a == tuple(residue(c, p) for c in params.a_invariants)


def test_is_good_prime_is_cached_per_curve_and_prime():
    params = derive_family(1, 1)
    is_good_prime.cache_clear()
    scan_family(params, 4)
    info = is_good_prime.cache_info()
    assert info.misses < info.hits


def test_a_planted_torsion_point_is_still_torsion(monkeypatch):
    """The walk runs only at split primes from the Hasse start, and the
    verdict is the same: the rational 3-torsion point over each fiber's
    field gives "torsion", and its sum with the fiber point does not."""
    curve = derive_family(1, 1)
    T = three_torsion(curve)
    checked = 0
    for s in enumerate_s_by_height(3):
        fd = fiber_at_s(curve, s)
        m = fd.fiber
        planted = FieldPoint.affine(curve, m, *(QuotientElem.constant(c, m) for c in rationals(T)))
        bound, _ = fiber_torsion_bound(curve, fd)
        assert nontorsion_certificate(planted, bound, split_primes(fd)) is False
        P = point_from_fiber_data(curve, fd) + planted
        assert nontorsion_certificate(P, bound, split_primes(fd)) is True
        checked += 1
    monkeypatch.setattr(family, "point_from_fiber_data", lambda curve, fd: FieldPoint.affine(
        curve, fd.fiber, *(QuotientElem.constant(c, fd.fiber) for c in rationals(T))))
    assert evaluate_fiber(curve, [Fraction(1), Fraction(1, 3)]) == "torsion"
    assert checked == len(enumerate_s_by_height(3))


def test_a_bound_past_the_head_walks_at_split_primes_the_kernel_finds(monkeypatch):
    """At bound 100 the Hasse start p + 1 - 2*sqrt(p) > 100 is p = 127, past
    the head primes, so the fiber's root counts mod p decide where it splits,
    and the walk runs only there."""
    curve = derive_family(1, 1)
    fd = fiber_at_s(curve, 1)
    walked, counted = [], []
    real_reduce, real_counts = reduce_point_mod_p, cubicfield._root_counts
    candidates = split_primes(fd)  # its head row is built here, before the count is patched

    def reduce(P, p):
        walked.append(p)
        return real_reduce(P, p)

    def counts(f, primes):
        counted.extend(primes)
        return real_counts(f, primes)

    monkeypatch.setattr(ellcurve, "reduce_point_mod_p", reduce)
    monkeypatch.setattr(cubicfield, "_root_counts", counts)
    assert nontorsion_certificate(point_from_fiber_data(curve, fd), 100, candidates) is True
    assert walked and walked[0] == min(p for p in walked) >= 127
    assert all(roots_mod_p(fd.fiber, p) == 3 for p in walked)
    assert min(counted) == 101 and set(walked) <= set(counted)
