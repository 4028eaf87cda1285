import random
from fractions import Fraction

import pytest

from ntcert.errors import InvalidInputError
from ntcert.exact import BiPoly
from ntcert.newton import (
    corner_check,
    default_b_sequence,
    min_universal_degree,
    plan_degrees,
    substitute_st,
)


def random_corner_poly(rng, n):
    """Random polynomial of total degree n passing the corner conditions."""
    terms = {(n - 1, 1): Fraction(rng.randint(1, 5))}
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(0, n)
        j = rng.randint(0, n - i)
        if (i, j) == (n, 0):
            continue
        terms[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    f = BiPoly(terms)
    if f.total_degree != n or f.coefficient(n - 1, 1) == 0:
        return None
    return f


def test_corner_check_examples():
    f = BiPoly({(2, 1): 1, (0, 3): 1, (1, 0): 1, (0, 0): 1})
    assert corner_check(f, 3) is True
    assert corner_check(BiPoly({(3, 0): 1, (0, 3): 1}), 3) is False
    assert corner_check(BiPoly({(0, 3): 1, (1, 0): 1}), 3) is False
    with pytest.raises(InvalidInputError):
        corner_check(f, 4)


def test_substitution_examples():
    f = BiPoly({(2, 1): 1, (0, 3): 1, (1, 0): 1, (0, 0): 1})
    _, deg = substitute_st(f, 2, 1, Fraction(7, 5))
    assert deg == 5  # k1 (n-1) + k2 with n = 3
    _, deg1 = substitute_st(BiPoly.first(), 4, 2, 1)
    assert deg1 == 4
    _, deg2 = substitute_st(BiPoly.second(), 4, 2, 1)
    assert deg2 == 2


def test_degree_law_random():
    rng = random.Random(80)
    done = 0
    bs = default_b_sequence(3)
    while done < 15:
        n = rng.randint(2, 5)
        f = random_corner_poly(rng, n)
        if f is None:
            continue
        for k1 in range(2, 7):
            for k2 in range(1, k1):
                expected = k1 * (n - 1) + k2
                hit = False
                for b in bs:
                    _, deg = substitute_st(f, k1, k2, b)
                    if deg == expected:
                        hit = True
                        break
                assert hit, (f, k1, k2)
        done += 1


def test_equal_weights_only_bounded():
    # with k1 = k2 cancellation may drop the degree; only <= is promised
    f = BiPoly({(2, 1): 1, (1, 2): -1, (0, 0): 1})  # cancels under v1=v2 shapes
    n = f.total_degree
    for b in default_b_sequence(3):
        _, deg = substitute_st(f, 2, 2, b)
        assert deg <= 2 * (n - 1) + 2


def test_plan_degrees():
    assert min_universal_degree(3) == 7
    assert min_universal_degree(2) == 3
    achievable = plan_degrees(3, 20)
    assert 5 in achievable and 6 not in achievable
    assert all(d in achievable for d in range(7, 21))
    for n in range(2, 7):
        ach = plan_degrees(n, 60)
        lower = min_universal_degree(n)
        assert all(d in ach for d in range(lower, 61))


def test_default_b_sequence_deterministic():
    assert default_b_sequence(5) == default_b_sequence(5)
    assert default_b_sequence(5, seed=1) != default_b_sequence(5, seed=2)


def test_plan_degrees_below_threshold_is_empty():
    assert plan_degrees(3, 4) == set()
    assert plan_degrees(2, 2) == set()
