"""Q(rho) = Q[x]/(x^2 + x + 1), in which the triangle curve's fixed points lie."""

from fractions import Fraction

import pytest

from ntcert.coverings import proj_equal
from ntcert.exact import QuotientElem, UniPoly

RHO_MODULUS = UniPoly((1, 1, 1))  # x^2 + x + 1


def test_cube_root_relations():
    rho = QuotientElem.generator(RHO_MODULUS)
    assert rho**3 == 1
    assert rho * rho + rho + 1 == 0


def test_projective_equality():
    rho = QuotientElem.generator(RHO_MODULUS)
    one = QuotientElem.constant(1, RHO_MODULUS)
    P = (rho, rho * rho, one)
    scaled = tuple(rho * c for c in P)
    assert proj_equal(P, scaled)
    assert not proj_equal(P, (rho * rho, rho, one))
    # pairs, as psi_identities compares points of the line
    assert proj_equal((Fraction(1), Fraction(-1)), (Fraction(-3), Fraction(3)))
    assert not proj_equal((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        proj_equal((one, one), (one, one, one))
    with pytest.raises(ValueError):
        proj_equal((one, one), (one * 0, one * 0))
