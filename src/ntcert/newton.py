"""Newton-polygon degree planning for monomial-type substitutions.

For a plane polynomial f(v1, v2) of total degree n whose exponent set has
(n-1, 1) as a corner (coefficient of v1^n zero, of v1^(n-1)*v2 nonzero),
the substitution v1 = s + t^k1, v2 = b + t^k2 with k1 > k2 >= 1 produces a
polynomial of exact t-degree k1*(n-1) + k2 for all but finitely many b: the
linear functional (i, j) -> k1*i + k2*j is maximized uniquely at that
corner.  Every target degree >= n(n-1) + 1 is reachable this way.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .errors import InvalidInputError, VerificationError
from .exact.bipoly import BiPoly


def corner_check(f: BiPoly, n: int) -> bool:
    """Conditions for the degree plan: no (n, 0) term, an (n-1, 1) term present."""
    if f.is_zero or f.total_degree != n:
        raise InvalidInputError(f"polynomial must be nonzero of total degree {n}")
    return f.coefficient(n, 0) == 0 and f.coefficient(n - 1, 1) != 0


def substitute_st(
    f: BiPoly, k1: int, k2: int, b: Fraction | int
) -> tuple[BiPoly, int]:
    """Apply v1 = s + t^k1, v2 = b + t^k2; returns (result in (s, t), deg_t)."""
    if k1 < 1 or k2 < 1:
        raise InvalidInputError("substitution exponents must be >= 1")
    first = BiPoly({(1, 0): 1, (0, k1): 1})
    second = BiPoly({(0, 0): Fraction(b), (0, k2): 1})
    g = f.substitute(first, second)
    return g, g.deg_second


def min_universal_degree(n: int) -> int:
    """n(n-1) + 1: past this, every degree is reachable with k1 > k2 >= 1."""
    if n < 2:
        raise InvalidInputError("total degree must be >= 2")
    return n * (n - 1) + 1


def plan_degrees(n: int, d_max: int) -> set[int]:
    """All reachable degrees k1*(n-1) + k2 <= d_max with k1 > k2 >= 1.

    Verifies that every integer in [n(n-1)+1, d_max] is covered before
    returning.
    """
    if n < 2:
        raise InvalidInputError("total degree must be >= 2")
    if d_max < 1:
        raise InvalidInputError("d_max must be >= 1")
    achievable: set[int] = set()
    k1 = 2
    while k1 * (n - 1) + 1 <= d_max:
        for k2 in range(1, k1):
            d = k1 * (n - 1) + k2
            if d <= d_max:
                achievable.add(d)
        k1 += 1
    lower = min_universal_degree(n)
    missing = [d for d in range(lower, d_max + 1) if d not in achievable]
    if missing:
        raise VerificationError(f"degree plan gap at {missing}")
    return achievable


def default_b_sequence(count: int, seed: int = 0) -> list[Fraction]:
    """Deterministic pseudorandom specialization constants.

    Genericity failures are a thin set, so a fixed seeded sequence finds a
    good b after at most a couple of retries while keeping runs reproducible.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        num = rng.randint(-50, 50)
        den = rng.randint(1, 12)
        out.append(Fraction(num, den))
    return out

