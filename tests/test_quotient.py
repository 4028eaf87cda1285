"""Q[x]/(m) as QuotientField on reduced UniPoly representatives, and
Q(rho) = Q[x]/(x^2 + x + 1), in which the triangle curve's fixed points lie."""

import random
from fractions import Fraction

import pytest

from ntcert.coverings import proj_equal
from ntcert.errors import InvalidInputError
from ntcert.exact import QuotientField, UniPoly
from ntcert.exact.power import _power

X = UniPoly.x()
RHO = QuotientField(UniPoly((1, 1, 1)))  # x^2 + x + 1


def test_inverse_of_generator():
    F = QuotientField(UniPoly((-2, 0, 0, 1)))  # x^3 - 2
    inv = F._inv(X)
    assert inv == UniPoly((0, 0, Fraction(1, 2)))
    assert F._mul(X, inv) == F.one


def test_inverse_of_one():
    F = QuotientField(UniPoly((1, -3, 0, 1)))
    assert F._inv(F.one) == F.one


def test_modulus_must_be_monic_of_positive_degree():
    for modulus in (UniPoly((3,)), UniPoly((1, 2))):
        with pytest.raises(InvalidInputError, match="monic of degree >= 1"):
            QuotientField(modulus)


def test_reducible_modulus_refused_at_inverse():
    F = QuotientField(UniPoly((-1, 0, 1)))  # x^2 - 1
    with pytest.raises(InvalidInputError, match="modulus is reducible"):
        F._inv(UniPoly((1, 1)))  # x + 1 divides it
    assert F._inv(X) == X  # x * x = 1, as x is a unit


def test_random_inverses_in_cyclic_cubic_field():
    F = QuotientField(UniPoly((1, -3, 0, 1)))
    rng = random.Random(40)
    checked = 0
    while checked < 100:
        z = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
        if z.is_zero:
            continue
        inv = F._inv(z)
        assert inv.degree < 3
        assert F._mul(z, inv) == F.one
        checked += 1


def test_zero_inverse():
    F = QuotientField(UniPoly((1, -3, 0, 1)))
    with pytest.raises(ZeroDivisionError):
        F._inv(F.zero)


def test_division_and_powers():
    F = QuotientField(UniPoly((1, -3, 0, 1)))
    assert F._mul(X, F._inv(X)) == F.one  # x / x
    assert _power(X, 0, F.one, F._mul) == F.one
    x5 = F._mul(F._mul(F._mul(F._mul(X, X), X), X), X)
    assert _power(X, 5, F.one, F._mul) == x5
    assert x5 == X**5 % F.modulus
    assert F._mul(_power(X, 5, F.one, F._mul), _power(F._inv(X), 5, F.one, F._mul)) == F.one


def test_cube_root_relations():
    assert _power(X, 3, RHO.one, RHO._mul) == RHO.one
    assert RHO._add(RHO._add(RHO._mul(X, X), X), RHO.one) == RHO.zero


def test_projective_equality():
    one, mul = RHO.one, RHO._mul
    P = (X, mul(X, X), one)
    scaled = tuple(mul(X, c) for c in P)
    assert proj_equal(P, scaled, mul)
    assert not proj_equal(P, (mul(X, X), X, one), mul)
    # pairs, as psi_identities compares points of the line
    assert proj_equal((Fraction(1), Fraction(-1)), (Fraction(-3), Fraction(3)))
    assert not proj_equal((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        proj_equal((one, one), (one, one, one), mul)
    with pytest.raises(ValueError):
        proj_equal((one, one), (RHO.zero, RHO.zero), mul)
