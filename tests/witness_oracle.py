"""An oracle for distinctness witnesses that shares no search with the scan.

It walks the primes one at a time and counts roots with
count_distinct_roots(f.coeffs, p), which evaluates f at every residue, not
with the split-type rows and the cubic root-count kernel of cubicfield.
"""

from functools import lru_cache

from ntcert.cubicfield import _bad_part
from ntcert.exact import count_distinct_roots, primes_up_to


@lru_cache(maxsize=None)
def _roots(f, p):
    return count_distinct_roots(f.coeffs, p)


def first_witness(K1, K2, bound):
    """The first prime <= bound, good for both fields, where one field has 3
    roots and the other none; None if no prime up to the bound is one."""
    bad = _bad_part(K1.defining, K1.disc) * _bad_part(K2.defining, K2.disc)
    for p in primes_up_to(bound):
        if bad % p and {_roots(K1.defining, p), _roots(K2.defining, p)} == {0, 3}:
            return p
    return None
