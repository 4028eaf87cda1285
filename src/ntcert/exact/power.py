"""Square-and-multiply, written once for every ring type in the package and
for multiples of a point under ellcurve's chord-tangent law."""

import operator


def _power(base, k: int, one, mul=operator.mul):
    """base**k for k >= 0; `one` is the result for k = 0, and mul(a, b) the
    product (the ring's * by default).

    The first product is base itself, not one * base, which keeps a truncated
    series' precision, and the unused last squaring is skipped.
    """
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if result is None else result
