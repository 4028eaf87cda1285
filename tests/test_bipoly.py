import random
from fractions import Fraction

import pytest

from ntcert.errors import InvalidInputError
from ntcert.exact import BiPoly


def random_bipoly(rng, terms=5, deg=4):
    return BiPoly(
        {
            (rng.randint(0, deg), rng.randint(0, deg)): Fraction(
                rng.randint(-6, 6), rng.randint(1, 3)
            )
            for _ in range(terms)
        }
    )


def evaluate(f: BiPoly, a: Fraction, b: Fraction) -> Fraction:
    return sum((c * a**i * b**j for (i, j), c in f.terms.items()), Fraction(0))


def test_ring_ops_commute_with_evaluation():
    rng = random.Random(20)
    for _ in range(40):
        f, g = random_bipoly(rng), random_bipoly(rng)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert evaluate(f + g, a, b) == evaluate(f, a, b) + evaluate(g, a, b)
        assert evaluate(f * g, a, b) == evaluate(f, a, b) * evaluate(g, a, b)
        assert evaluate(f**2, a, b) == evaluate(f, a, b) ** 2


def test_substitute_matches_pointwise_composition():
    rng = random.Random(21)
    for _ in range(25):
        f = random_bipoly(rng, terms=4, deg=3)
        p = random_bipoly(rng, terms=3, deg=2)
        q = random_bipoly(rng, terms=3, deg=2)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert evaluate(f.substitute(p, q), a, b) == evaluate(
            f, evaluate(p, a, b), evaluate(q, a, b)
        )


def test_substitute_reaches_high_exponents():
    """The power cache is filled in a loop, so no exponent nears the recursion limit."""
    f = BiPoly({(1200, 0): 1, (3, 1200): Fraction(1, 2)})
    assert f.substitute(BiPoly.first(), BiPoly.second()) == f


def test_as_sparse_second_requires_constant_first():
    f = BiPoly({(0, 2): 3, (0, 0): -1})
    assert f.as_sparse_second() == {2: 3, 0: -1}
    with pytest.raises(InvalidInputError):
        BiPoly({(1, 1): 1}).as_sparse_second()


def test_degrees_and_zero():
    assert BiPoly.zero().total_degree == -1
    f = BiPoly({(2, 3): 1, (4, 0): 2})
    assert f.total_degree == 5 and f.deg_first == 4 and f.deg_second == 3
    assert (f - f).is_zero
