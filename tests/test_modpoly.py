import random
from itertools import product

import pytest

from ntcert.errors import InvalidInputError
from ntcert.exact import ModPoly, UniPoly, count_distinct_roots, reduce_mod_p
from ntcert.exact.unipoly import DensePoly


def brute_force_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= n/2."""
    f = ModPoly(coeffs, p)
    n = f.degree
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = ModPoly(list(tail) + [1], p)
            if (f % divisor).is_zero:
                return False
    return True


def test_irreducible_examples():
    # a quadratic or a cubic is irreducible over F_p exactly when it has no root there
    cubes_mod_7 = {x**3 % 7 for x in range(7)}
    assert 2 not in cubes_mod_7
    assert count_distinct_roots(ModPoly((-2, 0, 0, 1), 7)) == 0

    assert any((x * x - 1) % 5 == 0 for x in range(5))
    assert count_distinct_roots(ModPoly((-1, 0, 1), 5)) == 2

    assert all((x**3 + x + 1) % 2 != 0 for x in range(2))
    assert count_distinct_roots(ModPoly((1, 1, 0, 1), 2)) == 0


def test_irreducible_agrees_with_exhaustive_search():
    """Below degree 4, having no root in F_p is irreducibility."""
    for p in (2, 3, 5):
        for deg in range(1, 4):
            for lead in range(1, p):
                for tail in product(range(p), repeat=deg):
                    coeffs = list(tail) + [lead]
                    rootless = count_distinct_roots(ModPoly(coeffs, p)) == 0
                    assert (deg == 1 or rootless) == brute_force_irreducible(coeffs, p), (
                        coeffs, p
                    )


def test_count_distinct_roots_vs_enumeration():
    rng = random.Random(30)
    for _ in range(60):
        p = rng.choice((5, 7, 11, 13, 31))
        coeffs = [rng.randint(0, p - 1) for _ in range(rng.randint(2, 6))]
        f = ModPoly(coeffs, p)
        if f.degree < 1:
            continue
        expected = sum(1 for x in range(p) if f.evaluate(x) == 0)
        assert count_distinct_roots(f) == expected


def test_pow_mod_matches_repeated_multiplication():
    p = 7
    f = ModPoly((1, 0, 1, 1), p)  # x^3 + x^2 + 1
    x = ModPoly.x(p)
    acc = ModPoly((1,), p)
    for e in range(1, 30):
        acc = acc * x % f
        assert x.pow_mod(e, f) == acc


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_divmod_over_f_p(p):
    rng = random.Random(p)
    divisors = [ModPoly((1, 0, 0, 0, 1), p), ModPoly((2, 0, 1, 0, 0, 1), p)]  # interior zeros
    for _ in range(40):
        divisors.append(ModPoly([rng.randrange(p) for _ in range(rng.randint(1, 5))], p))
    for g in divisors:
        if g.is_zero:
            continue
        f = ModPoly([rng.randrange(p) for _ in range(rng.randint(0, 12))], p)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert f // g == q and f % g == r


def test_mixed_characteristics_and_zero_divisor_raise():
    f, g = ModPoly((1, 2, 1), 5), ModPoly((1, 1), 7)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, divmod):
        with pytest.raises(InvalidInputError):
            op(f, g)
    with pytest.raises(ZeroDivisionError):
        divmod(f, ModPoly((5,), 5))
    with pytest.raises(ZeroDivisionError):
        f % ModPoly((), 5)


@pytest.mark.parametrize("cls", [UniPoly, ModPoly])
def test_dense_arithmetic_is_written_once(cls):
    shared = ("degree", "is_zero", "__bool__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__divmod__", "__floordiv__", "__mod__", "evaluate",
              "monic", "gcd", "xgcd")
    assert all(name in vars(DensePoly) for name in shared)
    assert not set(shared) & set(vars(cls))


def test_only_the_zero_polynomial_is_falsy():
    assert not ModPoly((), 5) and not ModPoly((5, 10), 5)
    assert ModPoly((3,), 5) and ModPoly((0, 1), 5)
    assert not UniPoly(()) and UniPoly((0, 1))


def test_xgcd_bezout():
    rng = random.Random(31)
    for _ in range(50):
        p = rng.choice((3, 5, 13))
        a = ModPoly([rng.randint(0, p - 1) for _ in range(5)], p)
        b = ModPoly([rng.randint(0, p - 1) for _ in range(4)], p)
        if a.is_zero or b.is_zero:
            continue
        g, u, v = a.xgcd(b)
        assert u * a + v * b == g


def test_reduction_guards():
    from fractions import Fraction

    with pytest.raises(InvalidInputError):
        ModPoly.from_unipoly(UniPoly((Fraction(1, 5), 1)), 5)
    # degree drop: leading coefficient divisible by p
    with pytest.raises(InvalidInputError):
        reduce_mod_p(UniPoly((1, 5)), 5)
    with pytest.raises(InvalidInputError):
        ModPoly((1, 1), 6)
