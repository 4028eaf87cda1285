import random
from fractions import Fraction

import pytest

from ntcert.errors import InvalidInputError
from ntcert.exact import QuotientElem, UniPoly, irreducible_over_q


def test_inverse_of_generator():
    mod = UniPoly((-2, 0, 0, 1))  # x^3 - 2
    x = QuotientElem.generator(mod)
    inv = x.inverse()
    assert inv.rep == UniPoly((0, 0, Fraction(1, 2)))
    assert (x * inv).rep == UniPoly.one()


def test_inverse_of_one():
    mod = UniPoly((1, -3, 0, 1))
    one = QuotientElem.constant(1, mod)
    assert one.inverse() == one


def test_reducible_modulus_rejected_at_construction():
    with pytest.raises(InvalidInputError, match="is reducible over Q"):
        QuotientElem.generator(UniPoly((-1, 0, 1)))  # x^2 - 1


def test_random_inverses_in_cyclic_cubic_field():
    mod = UniPoly((1, -3, 0, 1))
    rng = random.Random(40)
    checked = 0
    while checked < 100:
        rep = UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        )
        z = QuotientElem(rep, mod)
        if z.is_zero:
            continue
        assert z * z.inverse() == 1
        checked += 1


def test_zero_inverse_and_mixed_modulus():
    mod = UniPoly((1, -3, 0, 1))
    with pytest.raises(ZeroDivisionError):
        QuotientElem.constant(0, mod).inverse()
    other = UniPoly((-2, 0, 0, 1))
    with pytest.raises(InvalidInputError, match="different quotient rings"):
        QuotientElem.generator(mod) + QuotientElem.generator(other)


def test_division_and_powers():
    mod = UniPoly((1, -3, 0, 1))
    x = QuotientElem.generator(mod)
    assert (x / x) == 1
    assert x**0 == 1
    assert x**-1 == x.inverse()
    assert x**5 == x * x * x * x * x


def test_irreducibility_policy():
    assert irreducible_over_q(UniPoly((1, -3, 0, 1))) is True  # no rational roots
    assert irreducible_over_q(UniPoly((-1, 0, 1))) is False  # roots +-1
    assert irreducible_over_q(UniPoly((2, 1))) is True  # degree 1
    # degree >= 4 is never decided, irreducible (x^4 + x + 1, x^4 + 1) or
    # not (x^4 - 1): the sound policy answers unknown, never a guess
    assert irreducible_over_q(UniPoly((1, 1, 0, 0, 1))) is None
    assert irreducible_over_q(UniPoly((1, 0, 0, 0, 1))) is None
    assert irreducible_over_q(UniPoly((-1, 0, 0, 0, 1))) is None
    # so a quotient ring accepts such a modulus; only a known factor refuses
    assert QuotientElem.generator(UniPoly((-1, 0, 0, 0, 1))) ** 4 == 1
