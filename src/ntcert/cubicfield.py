"""Cyclic-vs-symmetric classification of rational cubics and distinctness proofs.

An irreducible monic cubic over Q generates a cyclic (C3) extension exactly
when its discriminant is a rational square; otherwise the Galois group is S3.
Two C3 cubics are proven to generate non-isomorphic fields by exhibiting a
single unramified prime where their splitting patterns differ (a Frobenius
witness).  The inconclusive verdict is explicit: a PresumedEqual result is
never treated as a proof of equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegenerateCubicError,
    InvalidInputError,
    RamifiedPrimeError,
    ReducibleCubicError,
    WrongClassError,
)
from .exact import (
    UniPoly,
    count_distinct_roots,
    primes_up_to,
    rational_is_square,
    reduce_mod_p,
)

DEFAULT_WITNESS_BOUND = 1000


class GaloisClass(str, Enum):
    C3 = "C3"
    S3 = "S3"


class SplitType(str, Enum):
    SPLITS_COMPLETELY = "splits_completely"
    IRREDUCIBLE = "irreducible"
    LINEAR_TIMES_QUADRATIC = "linear_times_quadratic"

    @classmethod
    def from_root_count(cls, roots: int) -> "SplitType":
        """Split type of a squarefree cubic mod p with this many roots in F_p:
        3 roots, 0 roots, or 1 root with an irreducible quadratic cofactor.
        """
        if roots == 3:
            return cls.SPLITS_COMPLETELY
        if roots == 0:
            return cls.IRREDUCIBLE
        return cls.LINEAR_TIMES_QUADRATIC


class Verdict(str, Enum):
    DISTINCT_FIELDS = "distinct_fields"
    PRESUMED_EQUAL = "presumed_equal"


@dataclass(frozen=True)
class CubicField:
    """An irreducible monic cubic with its discriminant data and Galois class."""

    defining: UniPoly
    disc: Fraction
    sqrt_disc: Fraction | None
    galois_class: GaloisClass

    def to_json_dict(self) -> dict:
        from .jsonio import to_jsonable

        doc = {
            "defining": to_jsonable(self.defining),
            "disc": to_jsonable(self.disc),
            "class": self.galois_class.value,
        }
        if self.sqrt_disc is not None:
            doc["sqrt_disc"] = to_jsonable(self.sqrt_disc)
        return doc


@dataclass(frozen=True)
class DisjointnessWitness:
    """Outcome of a pairwise field-distinctness scan.

    DISTINCT_FIELDS carries the witness prime; PRESUMED_EQUAL carries the
    scanned bound and proves nothing.
    """

    verdict: Verdict
    prime: int | None = None
    bound: int | None = None

    def to_json_dict(self) -> dict:
        if self.verdict is Verdict.DISTINCT_FIELDS:
            return {"verdict": self.verdict.value, "prime": self.prime}
        return {"verdict": self.verdict.value, "bound": self.bound}


def galois_class(f: UniPoly) -> CubicField:
    """Classify a monic cubic; errors if it is reducible or degenerate."""
    if f.degree != 3 or not f.is_monic:
        raise InvalidInputError("a monic cubic is required")
    if f.rational_roots():
        raise ReducibleCubicError(f"{f} has a rational root")
    disc = f.discriminant()
    if disc == 0:
        raise DegenerateCubicError("vanishing discriminant")
    root = rational_is_square(disc)
    if root is None:
        return CubicField(f, disc, None, GaloisClass.S3)
    return CubicField(f, disc, root, GaloisClass.C3)


def _is_unramified(f: UniPoly, disc: Fraction, p: int) -> bool:
    if disc.numerator % p == 0 or disc.denominator % p == 0:
        return False
    return all(c.denominator % p != 0 for c in f.coeffs)


def _split_type(f: UniPoly, p: int) -> SplitType:
    return SplitType.from_root_count(count_distinct_roots(reduce_mod_p(f, p)))


def splitting_type_mod_p(f: UniPoly, p: int) -> SplitType:
    """Splitting pattern of a monic cubic at an unramified prime p."""
    if f.degree != 3 or not f.is_monic:
        raise InvalidInputError("a monic cubic is required")
    disc = f.discriminant()
    if not _is_unramified(f, disc, p):
        raise RamifiedPrimeError(f"prime {p} is ramified or bad for {f}")
    return _split_type(f, p)


@lru_cache(maxsize=None)
def _splitting_fingerprint(coeffs: tuple[Fraction, ...], bound: int) -> tuple:
    """Splitting type at every prime <= bound (None at ramified/bad primes).

    Cached per cubic so that pairwise distinctness scans over a large
    accepted set cost one pass per field, not one per pair.
    """
    f = UniPoly(coeffs)
    disc = f.discriminant()
    return tuple(
        _split_type(f, p) if _is_unramified(f, disc, p) else None
        for p in primes_up_to(bound)
    )


def distinctness_witness(
    K1: CubicField, K2: CubicField, bound: int = DEFAULT_WITNESS_BOUND
) -> DisjointnessWitness:
    """Scan primes <= bound for a splitting disagreement between two C3 fields.

    A disagreeing prime is an unconditional proof that the fields are not
    isomorphic.  Exhausting the bound yields PRESUMED_EQUAL, which callers
    must treat as inconclusive.
    """
    if K1.galois_class is not GaloisClass.C3 or K2.galois_class is not GaloisClass.C3:
        raise WrongClassError("distinctness certificates require two C3 fields")
    # Distinct fields almost always disagree at a tiny prime, so scan in
    # stages; only genuinely equal fields ever walk the whole range.
    stages = [b for b in (97, bound) if b <= bound]
    if stages[-1] != bound:
        stages.append(bound)
    lower = 0
    for stage in stages:
        fp1 = _splitting_fingerprint(K1.defining.coeffs, stage)
        fp2 = _splitting_fingerprint(K2.defining.coeffs, stage)
        for p, s1, s2 in zip(primes_up_to(stage), fp1, fp2):
            if p <= lower or s1 is None or s2 is None:
                continue
            if s1 != s2:
                return DisjointnessWitness(Verdict.DISTINCT_FIELDS, prime=p)
        lower = stage
    return DisjointnessWitness(Verdict.PRESUMED_EQUAL, bound=bound)
