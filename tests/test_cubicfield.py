import random
from fractions import Fraction

import pytest

from ntcert.cubicfield import (
    CubicField,
    GaloisClass,
    SplitTypeMatrix,
    _first_difference,
    _root_counts,
    _split_codes,
    galois_class,
)
from ntcert.errors import InvalidInputError, VerificationError
from ntcert.exact import UniPoly, count_distinct_roots, primes_up_to

CYCLIC = UniPoly((1, -3, 0, 1))  # x^3 - 3x + 1, disc 81


def row(K: CubicField, primes) -> tuple[int, int]:
    """K's split-type row at these primes, from its cubic's coefficients."""
    return _split_codes(K.defining.coeffs, K.disc, primes)


def witness(K1, K2, bound=1000):
    """K2's witness prime against K1 from a two-field SplitTypeMatrix, or
    None when the matrix finds none up to the bound."""
    matrix = SplitTypeMatrix(bound)
    head = primes_up_to(min(97, bound))  # the matrix's head primes
    matrix.admit(K1.defining.coeffs, K1.disc, row(K1, head))
    primes = matrix.admit(K2.defining.coeffs, K2.disc, row(K2, head))
    return None if primes is None else primes[0]


def shanks_cubic(t: int) -> UniPoly:
    """x^3 - t x^2 - (t+3) x - 1, cyclic for every integer t."""
    return UniPoly((-1, -(t + 3), -t, 1))


def roots_mod_p(f: UniPoly, p: int) -> int:
    """Distinct roots of f in F_p, by evaluation at every residue; the root
    count is the split type: 3 splits completely, 0 inert, 1 linear times
    quadratic."""
    return count_distinct_roots(f.coeffs, p)


def test_classification_examples():
    K = galois_class(CYCLIC)
    assert K.galois_class is GaloisClass.C3
    assert K.disc == 81 and K.sqrt_disc == 9

    K2 = galois_class(UniPoly((-2, 0, 0, 1)))
    assert K2.galois_class is GaloisClass.S3
    assert K2.disc == -108 and K2.sqrt_disc is None

    with pytest.raises(InvalidInputError, match="has a rational root"):
        galois_class(UniPoly((0, -1, 0, 1)))  # x^3 - x


def test_splitting_examples_against_brute_force():
    cube = UniPoly((-2, 0, 0, 1))
    for f, p, roots in ((CYCLIC, 17, 3), (cube, 7, 0), (CYCLIC, 2, 0)):
        assert roots_mod_p(f, p) == roots
        assert _root_counts(f.coeffs, (p,)) == [roots]


def test_splitting_matches_brute_force_widely():
    for f in (CYCLIC, UniPoly((-2, 0, 0, 1)), shanks_cubic(2)):
        disc = f.discriminant()
        primes = tuple(p for p in primes_up_to(60) if disc.numerator % p)
        assert _root_counts(f.coeffs, primes) == [roots_mod_p(f, p) for p in primes]


def test_cyclic_cubics_never_split_linear_times_quadratic():
    for t in range(-5, 8):
        f = shanks_cubic(t)
        K = galois_class(f)
        assert K.galois_class is GaloisClass.C3
        for p in primes_up_to(100):
            if K.disc.numerator % p == 0:
                continue
            assert roots_mod_p(f, p) != 1


def test_class_invariant_under_shift():
    rng = random.Random(60)
    for f in (CYCLIC, UniPoly((-2, 0, 0, 1)), shanks_cubic(1)):
        base = galois_class(f).galois_class
        for _ in range(6):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert galois_class(f.compose(UniPoly((c, 1)))).galois_class is base  # f(x + c)


def test_ramified_prime_rejected():
    primes = primes_up_to(20)
    split, inert = row(galois_class(CYCLIC), primes)
    # 3 | 81 ramifies and gets neither bit; every other prime gets one
    assert primes[1] == 3 and not (split | inert) & 0b10
    assert split & inert == 0 and (split | inert).bit_count() == len(primes) - 1


def test_witness_examples():
    K1 = galois_class(CYCLIC)
    K2 = galois_class(UniPoly((-1, -2, 1, 1)))  # x^3 + x^2 - 2x - 1, disc 49
    assert K2.galois_class is GaloisClass.C3
    p = witness(K1, K2)
    assert isinstance(p, int)
    # recomputing both splitting types at the witness prime reproduces it
    assert {roots_mod_p(K1.defining, p), roots_mod_p(K2.defining, p)} == {0, 3}

    assert witness(K1, K1, bound=500) is None

    S3 = galois_class(UniPoly((-2, 0, 0, 1)))  # disc -108, not a square
    with pytest.raises(InvalidInputError, match="require two C3 fields"):
        SplitTypeMatrix().admit(S3.defining.coeffs, S3.disc, (0, 0))


def test_witness_rejects_a_bound_below_two():
    K = galois_class(CYCLIC)
    assert witness(K, K, bound=2) is None
    for bound in (1, 0, -5):
        with pytest.raises(InvalidInputError, match="witness bound"):
            SplitTypeMatrix(bound)


def test_witness_refutes_a_c3_label_at_a_linear_times_quadratic_prime():
    """x^3 - 2 has one root mod 5 (cubing permutes F_5), and 5 is unramified.
    It is labelled C3 by a claimed square discriminant, 36, with the bad
    primes 2 and 3 of its true discriminant -108."""
    f = UniPoly((-2, 0, 0, 1))
    assert roots_mod_p(f, 5) == 1
    assert f.discriminant() == -108
    mislabelled = CubicField(f, Fraction(36), Fraction(6), GaloisClass.C3)
    K = galois_class(CYCLIC)
    # 2 and 3 are bad for x^3 - 2: no prime below 5 tests the label
    assert witness(mislabelled, K, bound=4) is None
    with pytest.raises(VerificationError, match="linear times quadratic mod the unramified prime 5"):
        witness(mislabelled, K, bound=5)
    with pytest.raises(VerificationError, match="prime 5"):
        witness(K, mislabelled)


def test_witness_found_for_distinct_cyclic_fields():
    """Pairs with distinct square-free cores of sqrt(disc) witness by 200."""

    def core(n: int) -> int:
        n = abs(n)
        c = 1
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                c *= d
            d += 1
        return c * n

    rng = random.Random(61)
    fields = {}
    for t in range(0, 40):
        K = galois_class(shanks_cubic(t))
        fields[t] = (K, core(int(K.sqrt_disc)))
    pairs = 0
    attempts = 0
    while pairs < 20 and attempts < 400:
        attempts += 1
        t1, t2 = rng.sample(sorted(fields), 2)
        K1, c1 = fields[t1]
        K2, c2 = fields[t2]
        if c1 == c2:
            continue
        assert witness(K1, K2, bound=200) is not None, (t1, t2)
        pairs += 1
    assert pairs == 20


def test_staged_witness_matches_naive_scan():
    """The first difference of two split-type rows is the prime that a
    naive prime-by-prime comparison of split types finds."""
    cubics = [CYCLIC, shanks_cubic(0), shanks_cubic(1), shanks_cubic(4), shanks_cubic(7)]
    fields = [galois_class(f) for f in cubics]
    for bound in (50, 97, 150, 400):
        primes = primes_up_to(bound)
        for i in range(len(fields)):
            for j in range(len(fields)):
                K1, K2 = fields[i], fields[j]
                naive_prime = None
                for p in primes:
                    d1, d2 = K1.disc, K2.disc
                    if d1.numerator % p == 0 or d2.numerator % p == 0:
                        continue
                    if roots_mod_p(K1.defining, p) != roots_mod_p(K2.defining, p):
                        naive_prime = p
                        break
                col = _first_difference(row(K1, primes), row(K2, primes))
                assert (None if col is None else primes[col]) == naive_prime
                assert witness(K1, K2, bound) == naive_prime
