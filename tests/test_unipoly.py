import random
from fractions import Fraction

import pytest
import sympy

from ntcert.errors import InvalidInputError
from ntcert.exact import UniPoly, count_distinct_roots
from ntcert.exact.unipoly import _horner


def poly_from_roots(roots, lead=1):
    f = UniPoly.constant(lead)
    for r in roots:
        f = f * UniPoly((-r, 1))
    return f


def test_discriminant_depressed_cubic():
    # -4 p^3 - 27 q^2 at p = q = 1
    assert UniPoly((1, 1, 0, 1)).discriminant() == -31


def test_discriminant_quadratic():
    assert UniPoly((-1, 0, 1)).discriminant() == 4


def test_discriminant_cyclic_cubic():
    assert UniPoly((1, -3, 0, 1)).discriminant() == 81


def test_depressed_cubic_formula_random():
    rng = random.Random(10)
    for _ in range(40):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        f = UniPoly((q, p, 0, 1))
        assert f.discriminant() == -4 * p**3 - 27 * q**2


def test_discriminant_requires_degree_two():
    with pytest.raises(InvalidInputError):
        UniPoly((1, 2)).discriminant()


def test_resultant_zero_iff_common_root():
    # brute-force comparison over small splitting sets
    pool = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)]
    rng = random.Random(11)
    for _ in range(120):
        deg_f = rng.randint(1, 6)
        deg_g = rng.randint(1, 6)
        rf = [rng.choice(pool) for _ in range(deg_f)]
        rg = [rng.choice(pool) for _ in range(deg_g)]
        f = poly_from_roots(rf, rng.choice((1, 2, -3)))
        g = poly_from_roots(rg, rng.choice((1, -1, 5)))
        share = bool(set(rf) & set(rg))
        assert (f.resultant(g) == 0) == share


def sylvester_resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Independent oracle: determinant of the Sylvester matrix.

    Standard layout: deg(g) shifted rows of f's coefficients above deg(f)
    shifted rows of g's, all written highest degree first.
    """
    n, m = f.degree, g.degree
    size = n + m
    fd = [sympy.Rational(c) for c in reversed(f.coeffs)]
    gd = [sympy.Rational(c) for c in reversed(g.coeffs)]
    rows = []
    for i in range(m):
        rows.append([0] * i + fd + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gd + [0] * (size - m - 1 - i))
    return Fraction(str(sympy.Matrix(rows).det()))


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(12)
    for _ in range(60):
        cf = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))]
        cg = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(2, 7))]
        f, g = UniPoly(cf), UniPoly(cg)
        if f.degree < 1 or g.degree < 1:
            continue
        assert f.resultant(g) == sylvester_resultant(f, g)


def test_discriminant_scaling():
    rng = random.Random(13)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(3, 6))]
        f = UniPoly(coeffs)
        if f.degree < 2:
            continue
        c = Fraction(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 3))
        n = f.degree
        assert (c * f).discriminant() == c ** (2 * n - 2) * f.discriminant()


def test_rational_roots_examples():
    assert UniPoly((0, -1, 0, 1)).rational_roots() == {-1, 0, 1}
    assert UniPoly((1, -3, 0, 1)).rational_roots() == set()
    assert UniPoly((-3, 2)).rational_roots() == {Fraction(3, 2)}
    with pytest.raises(InvalidInputError):
        UniPoly.zero().rational_roots()


def test_rational_roots_random_reconstruction():
    rng = random.Random(14)
    pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    for _ in range(60):
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        f = poly_from_roots(roots, rng.choice((1, 2, -6)))
        assert f.rational_roots() == set(roots)


def sympy_rational_roots(f: UniPoly) -> set[Fraction]:
    """The roots of f's linear factors over Q, from sympy's factorization."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
    roots = set()
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            root = -b / a
            roots.add(Fraction(int(root.p), int(root.q)))
    return roots


def test_rational_roots_screen_matches_sympy_and_the_modpoly_root_count():
    """rational_roots screens the cleared integer polynomial at each prime
    r <= 29 not dividing its leading coefficient, rootless when no value at
    0, ..., r - 1 is 0 mod r: that is count_distinct_roots == 0, and
    the roots it returns are sympy's, for polynomials with and without
    rational roots."""
    rng = random.Random(17)
    pool = [Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3, 5)]
    seen = {"rooted": 0, "rootless": 0, "screened": 0, "enumerated": 0}
    for i in range(160):
        degree = rng.randint(1, 4)
        rooted = rng.randint(1, degree) if i % 2 else 0
        cofactor = [Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                    for _ in range(degree - rooted)] + [rng.choice((1, -2, 3, 6))]
        roots = [rng.choice(pool) for _ in range(rooted)]
        f = poly_from_roots(roots) * UniPoly(cofactor)
        expected = sympy_rational_roots(f)
        assert f.rational_roots() == expected, f
        seen["rooted" if expected else "rootless"] += 1
        _, ints = f.integer_primitive()
        screened = False
        for r in (5, 7, 11, 13, 17, 19, 23, 29):
            if ints[-1] % r == 0:
                continue
            rootless = all(_horner(ints, x) % r for x in range(r))
            assert rootless == (count_distinct_roots(ints, r) == 0), (f, r)
            screened = screened or rootless
        if not expected:
            seen["screened" if screened else "enumerated"] += 1
    assert all(seen.values()), seen


def test_divmod_and_gcd():
    rng = random.Random(15)
    for _ in range(50):
        f = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(6)])
        g = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
    a, b = UniPoly((0, -1, 0, 1)), UniPoly((0, 0, 1))  # x^3 - x and x^2
    assert a.gcd(b) == UniPoly.x()
    # sparse and high degree: x^200 + 1 = x^50 * (x^150 - 2) + 2x^50 + 1
    f, g = UniPoly.monomial(200) + 1, UniPoly.monomial(150) - 2
    assert divmod(f, g) == (UniPoly.monomial(50), UniPoly.monomial(50, 2) + 1)
    # a divisor with interior zeros: 3x^5 - x^2 + 1/2
    g = UniPoly((Fraction(1, 2), 0, -1, 0, 0, 3))
    for _ in range(20):
        f = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(13)])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert f % g == r
    for bad in ("x", 1.5, None):
        with pytest.raises(TypeError):
            divmod(f, bad)
        with pytest.raises(TypeError):
            f % bad
    for zero in (UniPoly.zero(), UniPoly((0, 0)), 0):
        with pytest.raises(ZeroDivisionError):
            divmod(f, zero)
        with pytest.raises(ZeroDivisionError):
            f % zero


def test_only_the_zero_polynomial_is_falsy():
    assert not UniPoly(()) and not UniPoly((0, Fraction(0)))
    assert UniPoly((Fraction(1, 3),)) and UniPoly((0, 1))


def test_xgcd_bezout_identity():
    rng = random.Random(16)
    for _ in range(40):
        f = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(5)])
        g = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        if f.is_zero or g.is_zero:
            continue
        d, u, v = f.xgcd(g)
        assert u * f + v * g == d


def test_compose_evaluate_consistency():
    rng = random.Random(17)
    for _ in range(30):
        f = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(4)])
        g = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)])
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert f.compose(g).evaluate(c) == f.evaluate(g.evaluate(c))


def test_shift_preserves_discriminant():
    f = UniPoly((1, -3, 0, 1))
    for c in (Fraction(1), Fraction(-2, 3), Fraction(7, 5)):
        assert f.compose(UniPoly((c, 1))).discriminant() == f.discriminant()  # f(x + c)
