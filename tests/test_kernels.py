"""The fast F_p kernels against oracles that share none of their code.

The pure-Python cubic root counts (square-and-multiply on coefficient
triples, then deg gcd(x^p - x, f)) are checked against
count_distinct_roots, which evaluates f at every residue mod p, both on
integral cubics and, at the good primes, prime by prime on rational ones.
The bitmask split-type rows and their first difference are checked against
per-prime root counts and a naive scan.
"""

import inspect
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from ntcert.cubicfield import (
    GaloisClass,
    _bad_part,
    _cubic_root_counts,
    _first_difference,
    _root_counts,
    _split_codes,
    galois_class,
)
from ntcert.exact import (
    UniPoly,
    count_distinct_roots,
    divisors,
    is_prime,
    iter_primes,
    primes_up_to,
)


def shanks_cubic(t: int) -> UniPoly:
    """x^3 - t x^2 - (t+3) x - 1, cyclic for every integer t."""
    return UniPoly((-1, -(t + 3), -t, 1))


def rescaled(f: UniPoly, scale: Fraction, shift: Fraction) -> UniPoly:
    """The monic cubic scale^3 * f(x/scale + shift): the same field, other coefficients."""
    g = f.compose(UniPoly((shift, 1 / scale)))
    return g * (1 / g.leading)


FIELDS = [
    shanks_cubic(-1),
    shanks_cubic(4),
    shanks_cubic(11),
    UniPoly((-2, 0, 0, 1)),  # S3: x^3 - 2
    UniPoly((1, 1, 0, 1)),  # S3: x^3 + x + 1, disc -31
    UniPoly((1, -1, 1, 1)),  # S3, not depressed
    rescaled(shanks_cubic(2), Fraction(2), Fraction(1, 3)),  # C3, a denominator 27
    rescaled(UniPoly((-3, 1, 0, 1)), Fraction(-3, 5), Fraction(-1, 2)),  # S3, denominators to 1000
]
# Past the default witness bound of 1000.
CHUNKED_BOUND = 1500


def fingerprint(f: UniPoly, bound: int) -> tuple:
    """The split type of f at every prime <= bound as the kernel's root count
    (3 split, 0 inert, 1 linear times quadratic), None at the primes
    _bad_part marks as ramified or bad."""
    bad = _bad_part(f, f.discriminant())
    primes = primes_up_to(bound)
    return tuple(n if bad % p else None for p, n in zip(primes, _root_counts(f, primes)))


def per_prime_fingerprint(f: UniPoly, bound: int) -> tuple:
    """The same from count_distinct_roots, prime by prime, None at the
    primes is_bad marks."""
    return tuple(
        None if is_bad(f, p) else count_distinct_roots(f.coeffs, p) for p in primes_up_to(bound)
    )


def is_bad(f: UniPoly, p: int) -> bool:
    disc = f.discriminant()
    dens = [c.denominator for c in f.coeffs]
    return any(n % p == 0 for n in (disc.numerator, disc.denominator, *dens))


def test_fixture_fields_cover_both_classes_and_rational_coefficients():
    classes = {galois_class(f).galois_class for f in FIELDS}
    assert classes == {GaloisClass.C3, GaloisClass.S3}
    assert any(c.denominator > 1 for f in FIELDS for c in f.coeffs)


@pytest.mark.parametrize("bound", [2, 3, 97, 1000, CHUNKED_BOUND])
def test_vectorised_fingerprint_matches_per_prime_split_types(bound):
    seen = set()
    for f in FIELDS:
        fp = fingerprint(f, bound)
        assert fp == per_prime_fingerprint(f, bound), f
        seen.update(fp)
    if bound >= 97:
        assert seen == {None, 0, 1, 3}


def test_fingerprint_at_two_and_three():
    # x^3 + x + 1 has no root mod 2 and one root (x = 1) mod 3.
    assert fingerprint(UniPoly((1, 1, 0, 1)), 3) == (0, 1)
    # Shanks t = 0 has discriminant 81: 3 ramifies, 2 is inert.
    assert fingerprint(shanks_cubic(0), 3) == (0, None)
    # 2 divides the discriminant 23104 and 3 the denominator 27: both are bad.
    assert fingerprint(FIELDS[6], 3) == (None, None)


def test_fingerprint_temporaries_stay_bounded_for_large_witness_bounds():
    # A row keeps one root count per prime and two bitmask ints of one bit
    # per prime; each prime's square-and-multiply holds only a few ints
    # below p^2.  So a row's memory grows with the number of primes (2,262
    # here), with nothing per residue or per pair of them.
    bound = 20000
    K = galois_class(shanks_cubic(3))  # discriminant 3^6: only 3 is bad
    primes = primes_up_to(bound)
    tracemalloc.start()
    try:
        split, inert = _split_codes(K, primes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split & inert == 0
    assert (split | inert).bit_count() == len(primes) - 1
    assert peak < 24 * 2**20


def monic_cubics(rng: random.Random) -> list[tuple[int, int, int]]:
    """(c2, c1, c0) of monic integral cubics: random ones with coefficients
    beyond int64, and products (x - a)^2 (x - b) and (x - a)^3, which are
    not squarefree mod any prime."""
    cubics = [tuple(rng.randrange(-(2**100), 2**100) for _ in range(3)) for _ in range(6)]
    cubics += [tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(4)]
    for a, b in ((rng.getrandbits(80), -rng.getrandbits(70)), (3, -5), (2 * 3 * 5 * 7, 0)):
        cubics.append((-(2 * a + b), a * a + 2 * a * b, -a * a * b))
        cubics.append((-3 * a, 3 * a * a, -(a**3)))
    return cubics + [(0, 0, 0)]


def test_cubic_root_counts_match_count_distinct_roots():
    primes = primes_up_to(CHUNKED_BOUND)
    assert primes[:2] == (2, 3)
    seen = set()
    for c2, c1, c0 in monic_cubics(random.Random(8)):
        counts = _cubic_root_counts(primes, c2, c1, c0)
        expected = [count_distinct_roots((c0, c1, c2, 1), p) for p in primes]
        assert counts == expected, (c2, c1, c0)
        seen.update(counts)
    assert seen == {0, 1, 2, 3}


def naive_first_difference(codes1, codes2):
    for i, (a, b) in enumerate(zip(codes1, codes2)):
        if a and b and a != b:
            return i
    return None


def row_of(codes):
    """The (split, inert) bitmasks of a row of codes: 1 split, 2 inert, 0 bad."""
    return (
        sum(1 << i for i, c in enumerate(codes) if c == 1),
        sum(1 << i for i, c in enumerate(codes) if c == 2),
    )


def test_bitmask_first_difference_matches_a_naive_scan():
    rng = random.Random(97)
    for length in (1, 25, 64, 65, 168, 400):
        for _ in range(200):
            codes1 = [rng.choice((0, 1, 2, 2, 2)) for _ in range(length)]
            # mostly equal rows, so that first differences fall anywhere
            codes2 = [c if rng.random() < 0.97 else rng.randrange(3) for c in codes1]
            assert _first_difference(row_of(codes1), row_of(codes2)) == naive_first_difference(
                codes1, codes2
            )
    assert _first_difference((0, 0), (0, 0)) is None


@pytest.mark.parametrize("bound", [2, 97, 1000])
def test_split_codes_match_per_prime_split_types(bound):
    codes = {None: 0, 3: 1, 0: 2}
    primes = primes_up_to(bound)
    for f in FIELDS:
        K = galois_class(f)
        if K.galois_class is GaloisClass.C3:
            expected = [codes[split] for split in per_prime_fingerprint(f, bound)]
            assert _split_codes(K, primes) == row_of(expected), f


def test_cached_sieve_matches_primality():
    assert inspect.isfunction(primes_up_to)
    for limit in (-1, 0, 1, 2, 97, 1000, 5000):
        primes = primes_up_to(limit)
        assert isinstance(primes, tuple)
        assert primes == tuple(n for n in range(limit + 1) if is_prime(n))
    for start in (0, 5, 98, 1000, 300_007):
        expected = [n for n in range(max(start, 0), start + 2000) if is_prime(n)][:50]
        assert list(islice(iter_primes(start), 50)) == expected


def test_divisors_match_trial_division():
    for n in [1, 2, 12, 97, 360, 1024, 9991, 30030, 2**5 * 3**4 * 7]:
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == divisors(-n) == expected
    with pytest.raises(ValueError):
        divisors(0)
