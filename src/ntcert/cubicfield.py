"""Cyclic-vs-symmetric classification of rational cubics and distinctness proofs.

An irreducible monic cubic over Q generates a cyclic (C3) extension exactly
when its discriminant is a rational square; otherwise the Galois group is S3.
Two C3 cubics are proven to generate non-isomorphic fields by one prime, a
Frobenius witness: unramified for both, where one field splits completely
and the other is inert.  Finding none up to the bound proves nothing, and
is reported as inconclusive, never as equality.

Split types come from root counts mod p: deg gcd(x^p - x, f) (Cohen,
GTM 138), with x^p mod f found by square-and-multiply on coefficient
triples, in pure Python, prime by prime.

_split_codes builds every split-type row: a pair of Python ints used as
bitmasks over a list of primes, one bit set where the field splits
completely, one where it is inert, neither where the prime is ramified or
bad.  Two fields' first witness is the lowest set bit of
(S1 & I2) | (I1 & S2).  A scan builds each field's row at the primes up
to 97, a prefix of the witness primes, where it evaluates the fiber, and
keeps its accepted fields in one SplitTypeMatrix with those rows.  When
two of them agree there, the matrix first tries to prove the fields equal
by a scaling (the second cubic is lambda^3 f(x/lambda) for the first f),
and only otherwise builds and compares the two fields' whole rows.  An
unramified prime of a Galois cubic
field splits completely or is inert (Marcus, Number Fields, ch. 3), so a
linear-times-quadratic prime met while building a row refutes the C3
classification.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .errors import InvalidInputError, VerificationError
from .exact import UniPoly, primes_up_to, rational_is_square

DEFAULT_WITNESS_BOUND = 1000


def __getattr__(name: str):
    """count_distinct_roots, re-exported lazily (PEP 562) for perfbench's tests:
    no scan calls it, so a scan never loads exact.modpoly."""
    if name != "count_distinct_roots":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .exact import count_distinct_roots

    return count_distinct_roots


class GaloisClass(str, Enum):
    C3 = "C3"
    S3 = "S3"


class CubicField(NamedTuple):
    """An irreducible monic cubic with its discriminant data and Galois class."""

    defining: UniPoly
    disc: Fraction
    sqrt_disc: Fraction | None
    galois_class: GaloisClass


def galois_class(f: UniPoly) -> CubicField:
    """Classify a monic cubic; errors if it is reducible or degenerate."""
    if f.degree != 3 or not f.is_monic:
        raise InvalidInputError("a monic cubic is required")
    if f.rational_roots():
        raise InvalidInputError(f"{f} has a rational root")
    disc = f.discriminant()
    if disc == 0:
        raise InvalidInputError("vanishing discriminant")
    root = rational_is_square(disc)
    if root is None:
        return CubicField(f, disc, None, GaloisClass.S3)
    return CubicField(f, disc, root, GaloisClass.C3)


def _bad_part(f: UniPoly, disc: Fraction) -> int:
    """An integer divisible by exactly the ramified or bad primes of f: those
    dividing the discriminant's numerator or denominator or a coefficient's
    denominator."""
    return disc.numerator * disc.denominator * lcm(*(c.denominator for c in f.coeffs))


def _gcd_degree(a2: int, a1: int, a0: int, g2: int, g1: int, g0: int, p: int) -> int:
    """deg gcd(f, g) over F_p, for f = x^3 + a2*x^2 + a1*x + a0 and a nonzero
    g = g2*x^2 + g1*x + g0: Euclid's steps written out."""
    if g2:
        inv = pow(g2, -1, p)
        b1, b0 = g1 * inv % p, g0 * inv % p  # g/g2 = x^2 + b1*x + b0
        q = a2 - b1  # f = (x + q)(x^2 + b1*x + b0) + r1*x + r0
        r1, r0 = (a1 - b0 - q * b1) % p, (a0 - q * b0) % p
        if not r1:
            return 0 if r0 else 2
        z = -r0 * pow(r1, -1, p)  # the root of r1*x + r0
        return 0 if (z * z + b1 * z + b0) % p else 1
    if g1:
        z = -g0 * pow(g1, -1, p)  # the root of g
        return 0 if (((z + a2) * z + a1) * z + a0) % p else 1
    return 0


def _cubic_root_counts(primes: tuple[int, ...], c2: int, c1: int, c0: int) -> list[int]:
    """Roots in F_p of f = x^3 + c2*x^2 + c1*x + c0, for every p in primes.

    x^p mod (f, p) comes from square-and-multiply on coefficient triples,
    where x^3 = -(c2*x^2 + c1*x + c0) and x^4 = x * x^3; f has 3 distinct
    roots when x^p = x, and otherwise deg gcd(x^p - x, f) of them.
    """
    counts = []
    for p in primes:
        a2, a1, a0 = c2 % p, c1 % p, c0 % p
        r0, r1, r2 = 0, 1, 0  # x
        for bit in bin(p)[3:]:
            # square: d0 + d1*x + ... + d4*x^4, folding x^4 and then x^3
            d4 = r2 * r2
            d3 = 2 * r1 * r2 - a2 * d4
            d2 = r1 * r1 + 2 * r0 * r2 - a1 * d4 - a2 * d3
            d1 = 2 * r0 * r1 - a0 * d4 - a1 * d3
            d0 = r0 * r0 - a0 * d3
            r0, r1, r2 = d0 % p, d1 % p, d2 % p
            if bit == "1":  # times x: a shift, then fold x^3
                r0, r1, r2 = -a0 * r2 % p, (r0 - a1 * r2) % p, (r1 - a2 * r2) % p
        if (r0, r1, r2) == (0, 1, 0):
            counts.append(3)
        else:
            counts.append(_gcd_degree(a2, a1, a0, r2, (r1 - 1) % p, r0, p))
    return counts


def _root_counts(f: UniPoly, primes: tuple[int, ...]) -> list[int]:
    """Roots mod p of the monic cubic f, for every p in primes.

    With D the lcm of the denominators, D^3 f(y/D) is a monic integral cubic
    with as many roots as f mod every p not dividing D (and p | D is bad).
    _cubic_root_counts counts its roots at each prime.
    """
    c0, c1, c2 = f.coeffs[:3]
    d = lcm(c0.denominator, c1.denominator, c2.denominator)
    return _cubic_root_counts(primes, int(c2 * d), int(c1 * d**2), int(c0 * d**3))


def _split_codes(K: CubicField, primes: tuple[int, ...]) -> tuple[int, int]:
    """K's row at these primes: bit i of the first mask is set when K splits
    completely at primes[i], of the second when K is inert there; neither
    is set at a ramified or bad prime.

    A C3 field has no other split type at an unramified prime, so any other
    root count at a good prime raises VerificationError.
    """
    bad = _bad_part(K.defining, K.disc)
    split = inert = 0
    for i, (p, n) in enumerate(zip(primes, _root_counts(K.defining, primes))):
        if not bad % p:
            continue
        if n == 3:
            split |= 1 << i
        elif n == 0:
            inert |= 1 << i
        else:
            raise VerificationError(
                f"{K.defining} is linear times quadratic mod the unramified prime {p}, so not C3"
            )
    return split, inert


def _first_difference(row1: tuple[int, int], row2: tuple[int, int]) -> int | None:
    """The first column where one row splits completely and the other is
    inert, or None if there is none."""
    (s1, i1), (s2, i2) = row1, row2
    differs = (s1 & i2) | (i1 & s2)
    return (differs & -differs).bit_length() - 1 if differs else None


# A matrix first compares fields at the primes up to this one, the head
# primes: distinct fields almost always disagree there, so only fields that
# agree at every one of them are compared up to the full witness bound.
_FIRST_STAGE = 97


def _scales_to(f: UniPoly, g: UniPoly) -> bool:
    """Whether the depressed cubic g = x^3 + P*x + Q is lambda^3 f(x/lambda)
    for f = x^3 + p*x + q: then lambda = Q*p/(q*P), and lambda^2 p = P and
    lambda^3 q = Q hold exactly.  lambda*theta is then a root of g in
    Q[theta]/(f), so both cubics define one field."""
    (q, p, f2, _), (Q, P, g2, _) = f.coeffs, g.coeffs
    if f2 or g2 or not (q and P):
        return False
    lam = Q * p / (q * P)
    return lam * lam * p == P and lam**3 * q == Q


def head_row(K: CubicField) -> tuple[int, int]:
    """K's row at the head primes, as SplitTypeMatrix.admit takes it."""
    return _split_codes(K, primes_up_to(_FIRST_STAGE))


@lru_cache(maxsize=None)
def _head_columns(stage: int) -> dict[int, int]:
    return {p: i for i, p in enumerate(primes_up_to(stage))}


def _root_count(f: UniPoly, row: tuple[int, int], p: int) -> int | None:
    """The roots mod p of the monic cubic f with head row row: from the row at
    a head prime (3 split, 0 inert, None ramified or bad), else _root_counts'."""
    if p > _FIRST_STAGE:
        return _root_counts(f, (p,))[0]
    i = _head_columns(_FIRST_STAGE)[p]
    return 3 if row[0] >> i & 1 else 0 if row[1] >> i & 1 else None


class SplitTypeMatrix:
    """Split-type rows of pairwise distinct C3 fields, for one witness bound.

    admit(K, row) returns K's witness primes against every accepted field,
    in order of acceptance, and accepts K; each is the first prime <= bound
    where both fields are unramified and one splits completely while the
    other is inert.  If some accepted field agrees with K at every prime
    <= bound, K is not accepted and admit returns None: inconclusive.  A
    field that agrees with an accepted one at every head prime and whose
    cubic is a scaling of that field's (_scales_to) is the same field, which
    no prime tells apart: admit returns None without building a whole row.
    row is K's row (from _split_codes) at primes that begin with the
    matrix's head primes, as head_row's do.
    """

    def __init__(self, bound: int = DEFAULT_WITNESS_BOUND):
        if bound < 2:
            raise InvalidInputError("witness bound must be >= 2")
        self._primes = primes_up_to(bound)
        # a prefix of self._primes, so a column indexes both
        self._head = primes_up_to(min(_FIRST_STAGE, bound))
        self._head_mask = (1 << len(self._head)) - 1
        # [field, head row, whole row or None until its first tie], in order of acceptance
        self._entries: list[list] = []

    def _whole_row(self, entry: list) -> tuple[int, int]:
        if entry[2] is None:
            entry[2] = _split_codes(entry[0], self._primes)
        return entry[2]

    def admit(self, K: CubicField, row: tuple[int, int]) -> tuple[int, ...] | None:
        if K.galois_class is not GaloisClass.C3:
            raise InvalidInputError("distinctness certificates require two C3 fields")
        mask = self._head_mask
        new = [K, (row[0] & mask, row[1] & mask), None]
        primes = []
        for entry in self._entries:
            j = _first_difference(entry[1], new[1])
            if (j is None and len(self._head) < len(self._primes)
                    and not _scales_to(entry[0].defining, K.defining)):
                # K agrees with this field at every head prime: compare whole rows
                j = _first_difference(self._whole_row(entry), self._whole_row(new))
            if j is None:
                return None
            primes.append(self._primes[j])
        self._entries.append(new)
        return tuple(primes)
