"""Cyclic-vs-symmetric classification of rational cubics and distinctness proofs.

An irreducible monic cubic over Q generates a cyclic (C3) extension exactly
when its discriminant is a rational square; otherwise the Galois group is S3.
Two C3 cubics are proven to generate non-isomorphic fields by exhibiting a
single unramified prime where their splitting patterns differ (a Frobenius
witness).  The inconclusive verdict is explicit: a PresumedEqual result is
never treated as a proof of equality.

Split types come from root counts mod p, counted for every prime up to the
bound at once by numpy evaluation over the flattened grid of (residue,
prime) pairs (root counting over F_p: Cohen, GTM 138).

A scan keeps its accepted fields as rows of one int8 SplitTypeMatrix: a
code per prime, 0 where the prime is ramified or bad.  A new field's
witnesses against every row come from one vectorised compare and an
argmax, and are the primes distinctness_witness would return.  Rows start
at the primes up to 97 and are extended to the witness bound lazily, only
when two rows agree at all of those primes.  An unramified prime of a
Galois cubic field splits completely or is inert (Marcus, Number Fields,
ch. 3), so a linear-times-quadratic prime met while building a row refutes
the C3 classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    DegenerateCubicError,
    InvalidInputError,
    RamifiedPrimeError,
    ReducibleCubicError,
    VerificationError,
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


def _bad_part(f: UniPoly, disc: Fraction) -> int:
    """An integer divisible by exactly the ramified or bad primes of f: those
    dividing the discriminant's numerator or denominator or a coefficient's
    denominator."""
    return disc.numerator * disc.denominator * lcm(*(c.denominator for c in f.coeffs))


def splitting_type_mod_p(f: UniPoly, p: int) -> SplitType:
    """Splitting pattern of a monic cubic at an unramified prime p."""
    if f.degree != 3 or not f.is_monic:
        raise InvalidInputError("a monic cubic is required")
    if _bad_part(f, f.discriminant()) % p == 0:
        raise RamifiedPrimeError(f"prime {p} is ramified or bad for {f}")
    return SplitType.from_root_count(count_distinct_roots(reduce_mod_p(f, p)))


# Most (residue, prime) pairs one numpy pass evaluates.  With whole primes
# per pass, a fingerprint's temporaries stay near 1 MB for any bound (unless
# one prime alone exceeds this); bound 1000 (76,127 pairs) takes two passes.
_GRID_CAP = 1 << 16


def _grid_chunks(primes: tuple[int, ...]):
    """Consecutive runs of whole primes with at most _GRID_CAP residues each."""
    start = size = 0
    for i, p in enumerate(primes):
        if size + p > _GRID_CAP and i > start:
            yield primes[start:i]
            start, size = i, 0
        size += p
    if primes:
        yield primes[start:]


@lru_cache(maxsize=4)
def _residue_grid(primes: tuple[int, ...]):
    """The flattened pairs (r, p) with 0 <= r < p, for each p in primes in turn.

    Returns the primes and their block starts (for np.add.reduceat), and the
    residue and prime of every pair, in a dtype that holds 2*p*p.
    """
    import numpy as np

    dtype = np.int32 if 2 * primes[-1] ** 2 < 2**31 else np.int64
    lengths = np.array(primes, dtype=dtype)
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    residues = np.arange(int(starts[-1]) + primes[-1], dtype=dtype)
    residues -= np.repeat(starts.astype(dtype), lengths)
    moduli = np.repeat(lengths, lengths)
    return lengths, starts, residues, moduli


def _cubic_root_counts(primes: tuple[int, ...], c2: int, c1: int, c0: int) -> list[int]:
    """Roots in F_p of x^3 + c2*x^2 + c1*x + c0, for every p in primes."""
    import numpy as np

    counts: list[int] = []
    for chunk in _grid_chunks(primes):
        lengths, starts, r, p = _residue_grid(chunk)

        def coeff(c: int):
            return np.repeat(np.array([c % q for q in chunk], dtype=r.dtype), lengths)

        # Horner, reduced twice: every intermediate value stays below 2*p*p.
        v = r + coeff(c2)
        v *= r
        v += coeff(c1)
        v %= p
        v *= r
        v += coeff(c0)
        v %= p
        counts += np.add.reduceat(v == 0, starts, dtype=np.int64).tolist()
    return counts


def _root_counts(f: UniPoly, primes: tuple[int, ...]) -> list[int]:
    """Roots mod p of the monic cubic f, for every p in primes.

    With D the lcm of the denominators, D^3 f(y/D) is a monic integral cubic
    with as many roots as f mod every p not dividing D (and p | D is bad).
    Its coefficients are reduced mod every prime in Python, as they can
    exceed int64, and its roots are counted for all primes together by
    _cubic_root_counts.
    """
    c0, c1, c2 = f.coeffs[:3]
    d = lcm(c0.denominator, c1.denominator, c2.denominator)
    return _cubic_root_counts(primes, int(c2 * d), int(c1 * d**2), int(c0 * d**3))


# Keyed by value, so repeated pairwise checks of the same fields (a test
# re-deriving every witness of a scan) count each field's roots once.
@lru_cache(maxsize=1024)
def _splitting_fingerprint(f: UniPoly, disc: Fraction, bound: int) -> tuple:
    """Splitting type of the monic cubic f, of discriminant disc, at every
    prime <= bound (None at ramified/bad primes)."""
    bad = _bad_part(f, disc)
    primes = primes_up_to(bound)
    return tuple(
        SplitType.from_root_count(n) if bad % p else None
        for p, n in zip(primes, _root_counts(f, primes))
    )


# Fields are first compared at the primes up to this one: distinct fields
# almost always disagree there, so only fields that agree at every one of
# them are compared up to the full witness bound.
_FIRST_STAGE = 97


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
    lower = 0
    for stage in sorted({min(_FIRST_STAGE, bound), bound}):
        fp1 = _splitting_fingerprint(K1.defining, K1.disc, stage)
        fp2 = _splitting_fingerprint(K2.defining, K2.disc, stage)
        for p, s1, s2 in zip(primes_up_to(stage), fp1, fp2):
            if p <= lower or s1 is None or s2 is None:
                continue
            if s1 != s2:
                return DisjointnessWitness(Verdict.DISTINCT_FIELDS, prime=p)
        lower = stage
    return DisjointnessWitness(Verdict.PRESUMED_EQUAL, bound=bound)


# Row code of a good prime by the cubic's root count there: 3 roots, it
# splits completely; none, it is inert.  Ramified or bad primes get 0.
_ROW_CODE = {3: 1, 0: 2}


def _split_codes(K: CubicField, primes: tuple[int, ...]):
    """K's int8 row at these primes.

    A C3 field has no other split type at an unramified prime, so one root
    at a good prime raises VerificationError.
    """
    import numpy as np

    bad = _bad_part(K.defining, K.disc)
    codes = []
    for p, n in zip(primes, _root_counts(K.defining, primes)):
        code = _ROW_CODE.get(n) if bad % p else 0
        if code is None:
            raise VerificationError(
                f"{K.defining} is linear times quadratic mod the unramified prime {p}, so not C3"
            )
        codes.append(code)
    return np.array(codes, dtype=np.int8)


def _first_difference(rows, row):
    """Per row of `rows`: whether it and `row` differ where both are nonzero,
    and the index of the first such column (0 where there is none)."""
    differs = (rows != row) & (rows != 0) & (row != 0)
    return differs.any(axis=-1), differs.argmax(axis=-1)


class SplitTypeMatrix:
    """Split-type rows of pairwise distinct C3 fields, for one witness bound.

    admit(K) returns K's witnesses against every accepted field, in order of
    acceptance, and accepts K; each is the first prime <= bound where both
    fields are unramified and split differently, as from distinctness_witness.
    If some accepted field agrees with K at every prime <= bound, K is not
    accepted and admit returns None: the inconclusive PRESUMED_EQUAL.
    """

    def __init__(self, bound: int = DEFAULT_WITNESS_BOUND):
        import numpy as np

        if bound < 2:
            raise InvalidInputError("witness bound must be >= 2")
        self._head = primes_up_to(min(_FIRST_STAGE, bound))
        self._tail = primes_up_to(bound)[len(self._head):]
        self._rows = np.zeros((0, len(self._head)), dtype=np.int8)
        self._fields: list[CubicField] = []
        self._tails = {}  # row index -> its codes at the primes in (97, bound]
        self._witnesses: dict[int, DisjointnessWitness] = {}

    def _tail_row(self, i: int):
        tail = self._tails.get(i)
        if tail is None:
            tail = self._tails[i] = _split_codes(self._fields[i], self._tail)
        return tail

    def _witness(self, p: int) -> DisjointnessWitness:
        w = self._witnesses.get(p)
        if w is None:
            w = self._witnesses[p] = DisjointnessWitness(Verdict.DISTINCT_FIELDS, prime=p)
        return w

    def admit(self, K: CubicField) -> tuple[DisjointnessWitness, ...] | None:
        import numpy as np

        if K.galois_class is not GaloisClass.C3:
            raise WrongClassError("distinctness certificates require two C3 fields")
        row = _split_codes(K, self._head)
        found, first = _first_difference(self._rows, row)
        primes = [self._head[j] for j in first.tolist()]
        tail = None
        for i in np.flatnonzero(~found).tolist():  # rows that agree with K at every head prime
            if not self._tail:
                return None
            if tail is None:
                tail = _split_codes(K, self._tail)
            differ, j = _first_difference(self._tail_row(i), tail)
            if not differ:
                return None
            primes[i] = self._tail[int(j)]
        if tail is not None:
            self._tails[len(self._fields)] = tail
        self._rows = np.vstack([self._rows, row])
        self._fields.append(K)
        return tuple(map(self._witness, primes))
