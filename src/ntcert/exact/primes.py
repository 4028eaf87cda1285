"""Prime-number utilities: deterministic primality, sieves, factorization.

Everything here is desk scale: trial division and a deterministic
Miller-Rabin (valid far beyond 64-bit inputs) are all that is needed.
primes_up_to and iter_primes read one cached sieve of Eratosthenes, which
grows on demand, so a scan that asks for the same primes for every fiber
sieves them once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, islice
from math import isqrt
from typing import Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The cached sieve as (limit, every prime up to limit, ascending), replaced
# whole when it grows, to at least twice its limit so growth is amortised.
# Its tuples are never mutated, so a caller may keep the one it was handed.
_MIN_SIEVE = 1 << 10
_sieve: tuple[int, tuple[int, ...]] = (1, ())


def _sieve_through(limit: int) -> tuple[int, ...]:
    """The cached primes, after extending the sieve of Eratosthenes to cover limit."""
    global _sieve
    sieved_to, primes = _sieve
    if limit > sieved_to:
        n = max(limit, 2 * sieved_to, _MIN_SIEVE)
        flags = bytearray([1]) * (n + 1)
        flags[0] = flags[1] = 0
        for p in range(2, isqrt(n) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
        primes = tuple(compress(range(n + 1), flags))
        _sieve = (n, primes)
    return primes


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes p <= limit, ascending, read from the cached sieve."""
    primes = _sieve_through(limit)
    return primes[: bisect_right(primes, limit)]


def iter_primes(start: int = 2) -> Iterator[int]:
    """Ascending primes >= start, unbounded; walks the cached sieve, extending it as needed."""
    n = max(2, start)
    while True:
        # Bertrand: (n, 2n] holds a prime, so every round yields at least one.
        primes = _sieve_through(2 * n)
        yield from islice(primes, bisect_left(primes, n), None)
        n = primes[-1] + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent} (trial division)."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of |n| in ascending order; n must be nonzero."""
    if n == 0:
        raise ValueError("divisors of zero are not defined")
    divs = [1]
    for p, e in factorize(n).items():
        divs = [a * p**k for a in divs for k in range(e + 1)]
    return sorted(divs)
