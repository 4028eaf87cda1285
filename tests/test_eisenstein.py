import random
from fractions import Fraction

import pytest

from ntcert.exact import EisensteinInt, proj_equal


def test_cube_root_relations():
    rho = EisensteinInt.rho()
    assert rho**3 == 1
    assert rho * rho + rho + 1 == 0


def test_inverse_and_norm():
    rng = random.Random(50)
    for _ in range(60):
        z = EisensteinInt(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        )
        if z.is_zero:
            continue
        assert z * z.inverse() == 1
        w = EisensteinInt(rng.randint(-5, 5), rng.randint(-5, 5))
        assert (z * w).norm() == z.norm() * w.norm()
        assert z * z.conjugate() == EisensteinInt(z.norm(), 0)


def test_projective_equality():
    rho = EisensteinInt.rho()
    one = EisensteinInt(1)
    P = (rho, rho * rho, one)
    scaled = tuple(rho * c for c in P)
    assert proj_equal(P, scaled)
    assert not proj_equal(P, (rho * rho, rho, one))
    with pytest.raises(ValueError):
        proj_equal((one, one), (one, one))
