"""An oracle for the modular series that shares no code with qseries._mul.

A series here is a pair (valuation, coefficient list) known below
valuation + len(list).  Products and quotients are schoolbook loops over
ints, kept to min(len a, len b) terms, which is what both factors determine.
From them it builds t = A/B by series division, Delta, j = E4^3/Delta, and
the uncleared form of the j identity, E4^3*(f-27)^3 = f*(f+216)^3*Delta,
against which the tests place the first mismatch of
qseries.verify_eta_identity's cleared form.
"""

from functools import lru_cache


def mul(a, b):
    (va, x), (vb, y) = a, b
    n = min(len(x), len(y))
    out = [0] * n
    for i, c in enumerate(x[:n]):
        if c:
            for k, d in enumerate(y[: n - i]):
                out[i + k] += c * d
    return va + vb, out


def div(a, b):
    """a/b, for b's first coefficient +-1: every quotient coefficient is an int."""
    (va, x), (vb, y) = a, b
    if y[0] not in (1, -1):
        raise ValueError("only a divisor with lead +-1 gives int coefficients")
    out = []
    for i in range(min(len(x), len(y))):
        rest = x[i] - sum(y[k] * out[i - k] for k in range(1, i + 1))
        out.append(rest * y[0])
    return va - vb, out


def cube(a):
    return mul(mul(a, a), a)


def plus(a, c):
    """a + c, for a known past q^0."""
    v, x = a
    out = [0] * max(v, 0) + list(x)
    out[-min(v, 0)] += c
    return min(v, 0), out


@lru_cache(maxsize=None)
def eta_power(k, n):
    """prod (1 - q^m)^k to n terms, one factor (1 - q^m) at a time."""
    out = [1] + [0] * (n - 1)
    for _ in range(k):
        for m in range(1, n):
            for e in range(n - 1, m - 1, -1):
                out[e] -= out[e - m]
    return 0, tuple(out)


def e4(n):
    """E4 = 1 + 240 * sum sigma_3(m) q^m, to n terms."""
    return 0, [1] + [240 * sum(d**3 for d in range(1, m + 1) if m % d == 0) for m in range(1, n)]


@lru_cache(maxsize=None)
def hauptmodul_t(n):
    """t = q^-1 * prod (1-q^m)^12 / prod (1-q^3m)^12, to n terms."""
    _, numer = eta_power(12, n)
    denom = [numer[m // 3] if m % 3 == 0 else 0 for m in range(n)]
    v, out = div((-1, numer), (0, denom))
    return v, tuple(out)


def delta(n):
    """Delta = q * prod (1 - q^m)^24, to n terms."""
    return 1, eta_power(24, n)[1]


def j(n):
    """j = E4^3 / Delta, to n terms."""
    return div(cube(e4(n)), delta(n))


@lru_cache(maxsize=None)
def _uncleared_rhs(n):
    f = plus(hauptmodul_t(n), 27)
    return mul(mul(f, cube(plus(f, 216))), delta(n))


def old_first_mismatch(order, e4_series):
    """The first exponent in -3 .. order-3 where E4^3*(f-27)^3 and
    f*(f+216)^3*Delta differ, f = t + 27, or None; E4 is given to order + 2
    terms, and every other series is built to as many."""
    n = order + 2
    lhs = mul(cube(e4_series), cube(hauptmodul_t(n)))
    rhs = _uncleared_rhs(n)
    assert lhs[0] == rhs[0] == -3
    for e in range(-3, order - 2):
        if lhs[1][e + 3] != rhs[1][e + 3]:
            return e
    return None
