"""count_distinct_roots, the evaluation oracle that the F_p root counts are
checked against, checked itself against known values, trial division and
the factor theorem.

Trial division runs over Q: dividing an integral f by a monic integral g
gives an integral quotient and remainder, so reducing them mod p gives the
division of f by g in F_p[x].
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ntcert.errors import InvalidInputError
from ntcert.exact import UniPoly, count_distinct_roots


def vanishes_mod(f: UniPoly, p: int) -> bool:
    """Whether the integral f is 0 mod p."""
    return all(c % p == 0 for c in f.coeffs)


def brute_force_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= n/2."""
    f = UniPoly(coeffs)
    n = f.degree
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            if vanishes_mod(f % UniPoly(list(tail) + [1]), p):
                return False
    return True


def test_irreducible_examples():
    # a quadratic or a cubic is irreducible over F_p exactly when it has no root there
    cubes_mod_7 = {x**3 % 7 for x in range(7)}
    assert 2 not in cubes_mod_7
    assert count_distinct_roots((-2, 0, 0, 1), 7) == 0

    assert any((x * x - 1) % 5 == 0 for x in range(5))
    assert count_distinct_roots((-1, 0, 1), 5) == 2

    assert all((x**3 + x + 1) % 2 != 0 for x in range(2))
    assert count_distinct_roots((1, 1, 0, 1), 2) == 0


def test_irreducible_agrees_with_exhaustive_search():
    """Below degree 4, having no root in F_p is irreducibility."""
    for p in (2, 3, 5):
        for deg in range(1, 4):
            for lead in range(1, p):
                for tail in product(range(p), repeat=deg):
                    coeffs = list(tail) + [lead]
                    rootless = count_distinct_roots(coeffs, p) == 0
                    assert (deg == 1 or rootless) == brute_force_irreducible(coeffs, p), (
                        coeffs, p
                    )


def test_count_distinct_roots_vs_enumeration():
    """The count is the number of r in F_p for which x - r divides f mod p."""
    rng = random.Random(30)
    for _ in range(60):
        p = rng.choice((5, 7, 11, 13, 31))
        coeffs = [rng.randint(0, p - 1) for _ in range(rng.randint(2, 6))]
        if not any(coeffs):
            continue
        f = UniPoly(coeffs)
        expected = sum(vanishes_mod(f % UniPoly((-r, 1)), p) for r in range(p))
        assert count_distinct_roots(coeffs, p) == expected
        # rational coefficients are read through their residues
        assert count_distinct_roots([Fraction(c, p + 1) for c in coeffs], p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_divmod_over_f_p(p):
    """Division by a monic integral divisor, interior zeros included, keeps
    an integral quotient and remainder, so it is division in F_p[x]."""
    rng = random.Random(p)
    divisors = [UniPoly((1, 0, 0, 0, 1)), UniPoly((2, 0, 1, 0, 0, 1))]  # interior zeros
    for _ in range(40):
        divisors.append(UniPoly([rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1]))
    for g in divisors:
        f = UniPoly([rng.randrange(p) for _ in range(rng.randint(0, 12))])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert all(c.denominator == 1 for c in q.coeffs + r.coeffs)
        assert f % g == r


def test_reduction_guards():
    with pytest.raises(InvalidInputError, match="not prime"):
        count_distinct_roots((1, 1), 6)
    with pytest.raises(InvalidInputError, match="denominator"):
        count_distinct_roots((Fraction(1, 5), 1), 5)
    for coeffs, p in (((), 5), ((5, 10), 5), ((0, Fraction(7, 3)), 7)):
        with pytest.raises(InvalidInputError, match="vanishes"):
            count_distinct_roots(coeffs, p)
    # a leading coefficient that vanishes mod p leaves a lower degree: 1 + 5x is 1 mod 5
    assert count_distinct_roots((1, 5), 5) == 0
