"""Truncated Laurent q-expansions with exact integer coefficients.

A series is a valuation (possibly negative), a list of ints starting
there, and an exclusive truncation order below which every coefficient is
known exactly, so identities verified here are coefficient-for-coefficient
statements, never numerics.

One kernel multiplies int lists, by Kronecker substitution (D. Harvey,
J. Symbolic Comput. 44(10), 2009): each factor is packed through
``to_bytes``/``from_bytes`` into one int with a signed w-byte slot per
coefficient, the two ints are multiplied once (Karatsuba in CPython), and
each slot of the product is read back with the borrow of the slot below.

Built on this: the Euler products prod (1 - q^n)^k from the pentagonal
number theorem, E4, and the exact verification that f = t + 27, with
t = q^-1 * prod (1-q^n)^12 / prod (1-q^3n)^12 the weight-12 eta quotient
on Gamma0(3), satisfies j = f*(f+216)^3/(f-27)^3 -- checked with every
denominator cleared -- together with its closed-form counterpart
256*(a^4+54)^3*a^4/(4*a^4-27)^3.

The printed source expansion carries exponent 2 on the eta quotient; at
that exponent the q-valuation would be -1/6, which cannot match the
printed integral series.  Exponent 12 reproduces every printed
coefficient, so that is what is implemented, and the verification report
records both facts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidInputError
from .exact.power import _power

PRINTED_ETA_EXPONENT = 2
IMPLEMENTED_ETA_EXPONENT = 12
# Every series holds order + 1 ints, and time grows faster than the order, so
# verify_eta_identity refuses larger orders before it builds any series.
_ORDER_MAX = 10**5

# Printed expansion of f = q^-1 + 15 + 54q - 76q^2 - 243q^3 + 1188q^4 - ...
PRINTED_F_COEFFICIENTS: tuple[tuple[int, int], ...] = (
    (-1, 1),
    (0, 15),
    (1, 54),
    (2, -76),
    (3, -243),
    (4, 1188),
)

# byte -> its top bit, which in a slot's top byte is the slot's sign
_SIGN_BIT = bytes(b >> 7 for b in range(256))


def _pack(cs: Sequence[int], w: int) -> int:
    """sum c_i * 256^(w*i), from the signed w-byte slots of `cs`."""
    buf = b"".join(c.to_bytes(w, "little", signed=True) for c in cs)
    # read unsigned, a negative slot stands for c_i + 256^w: take that 1 back
    # from the slot above, all slots at once
    borrow = bytearray(len(buf) + w)
    borrow[w::w] = buf[w - 1 :: w].translate(_SIGN_BIT)
    return int.from_bytes(buf, "little") - int.from_bytes(borrow, "little")


def _mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the product of the int lists a and b."""
    a, b = a[:n], b[:n]
    bound = min(len(a), len(b)) * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * n
    # every product coefficient c has |c| <= bound < 256^w / 2, so a slot
    # read as signed is c less the borrow its lower neighbour made
    w = (bound.bit_length() + 8) // 8
    product = _pack(a, w) * _pack(b, w)
    buf = (product & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    slots = [int.from_bytes(buf[i : i + w], "little", signed=True) for i in range(0, w * n, w)]
    return [s + (below < 0) for s, below in zip(slots, [0] + slots)]


def _full_mul(a: list[int], b: list[int]) -> list[int]:
    """The whole product of two nonempty int lists, as polynomials."""
    return _mul(a, b, len(a) + len(b) - 1)


class LaurentSeries:
    """Int coefficients from `valuation` up to (excluding) `order`."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[int], order: int):
        cs = tuple(coeffs)
        if valuation + len(cs) != order:
            raise InvalidInputError("coefficient count must span valuation..order")
        lead = next((i for i, c in enumerate(cs) if c), len(cs))
        self.valuation = valuation + lead
        self.coeffs = cs[lead:]
        self.order = order

    def coefficient(self, e: int) -> int:
        if e >= self.order:
            raise InvalidInputError(f"coefficient of q^{e} is beyond the truncation")
        if e < self.valuation:
            return 0
        return self.coeffs[e - self.valuation]

    def __mul__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            order = min(self.order, other.order)
            return LaurentSeries(order, (), order)
        # exactness horizon: unknown tails contribute from o1+v2 and o2+v1
        order = min(self.order + other.valuation, other.order + self.valuation)
        val = self.valuation + other.valuation
        return LaurentSeries(val, _mul(self.coeffs, other.coeffs, order - val), order)

    def __pow__(self, k: int) -> "LaurentSeries":
        if k < 0:
            raise InvalidInputError("a series power needs k >= 0")
        if k == 0 and self.order < 1:
            raise InvalidInputError("cannot represent 1 below order 1")
        return _power(self, k, LaurentSeries(0, (1,) + (0,) * (self.order - 1), self.order))

    def dilate(self, k: int, order: int) -> "LaurentSeries":
        """Substitute q -> q^k (k >= 1), known below min(order, k * self.order)."""
        if k < 1:
            raise InvalidInputError("dilation factor must be >= 1")
        new_order = min(order, self.order * k)
        val = self.valuation * k
        if val >= new_order:
            return LaurentSeries(new_order, (), new_order)
        out = [0] * (new_order - val)
        out[::k] = self.coeffs[: len(range(0, len(out), k))]
        return LaurentSeries(val, out, new_order)

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by q^d."""
        return LaurentSeries(self.valuation + d, self.coeffs, self.order + d)


def _sum(a: LaurentSeries, b: LaurentSeries, c: int) -> LaurentSeries:
    """a + c*b, known below the lower of the two orders."""
    val, order = min(a.valuation, b.valuation), min(a.order, b.order)
    return LaurentSeries(val, [a.coefficient(e) + c * b.coefficient(e) for e in range(val, order)], order)


# -- the modular series -----------------------------------------------------------


def euler_pow(k: int, order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^n)^k to the given order.

    The product itself is Euler's pentagonal series, sum over j of
    (-1)^j q^(j(3j-1)/2) for every integer j, which has O(sqrt(order)) terms.
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    base = [0] * order
    base[0] = 1
    j = 1
    while j * (3 * j - 1) // 2 < order:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < order:
                base[e] = -1 if j % 2 else 1
        j += 1
    return LaurentSeries(0, base, order) ** k


def _sigma3_table(limit: int) -> list[int]:
    sig = [0] * (limit + 1)
    for d in range(1, limit + 1):
        cube = d * d * d
        for n in range(d, limit + 1, d):
            sig[n] += cube
    return sig


def eisenstein_e4(order: int) -> LaurentSeries:
    """E4 = 1 + 240 * sum sigma_3(n) q^n."""
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    sig = _sigma3_table(order - 1)
    coeffs = [240 * sig[n] for n in range(order)]
    coeffs[0] = 1
    return LaurentSeries(0, coeffs, order)


def verify_eta_identity(order: int) -> dict:
    """Exact verification of the eta-quotient / j-invariant identity.

    Three checks: (i) t + 27 reproduces the printed coefficients; (ii)
    j = E4^3/Delta equals f*(f+216)^3/(f-27)^3; (iii) the closed form
    256*(a^4+54)^3*a^4/(4a^4-27)^3 equals the same rational function under
    f = 4*a^4, by polynomial cross-multiplication.

    With A = q^-1 * prod (1-q^n)^12 and B = prod (1-q^3n)^12, t = A/B, so
    f - 27, f and f + 216 are A, A + 27B and A + 243B over B, and
    Delta = q^3*A^2.  (ii) is checked with every denominator cleared, over
    the integers: lhs = E4^3*A*B against rhs = q^3*(A+27B)*(A+243B)^3 at the
    exponents -1 .. order-1, that is mod q^order.  The uncleared form
    E4^3*(f-27)^3 = f*(f+216)^3*Delta mod q^(order-2) is the same statement
    times A^2/B^4, q^-2 times a unit series, so its sides first differ 2
    below where lhs and rhs do.  (i) needs t only to q^4: six terms of the
    exact division A/B, B's lead being 1.

    ``first_mismatch`` gives the first printed coefficient that differs or,
    failing that, the first exponent of (ii) at which lhs and rhs differ.
    Orders above _ORDER_MAX are refused before any series is built.
    """
    if not 6 <= order <= _ORDER_MAX:
        raise InvalidInputError(f"order must be between 6 and {_ORDER_MAX}")
    numer = euler_pow(12, order + 1)
    a = numer.shift(-1)
    b = numer.dilate(3, order + 1)

    t = []  # a/b to q^4; b's lead is 1, so each term is an int
    for i in range(6):
        t.append(a.coefficient(i - 1) - sum(b.coefficient(k) * t[i - k] for k in range(1, i + 1)))
    f = dict(zip(range(-1, 5), t))
    f[0] += 27

    printed_ok = True
    first_mismatch = None
    for e, expected in PRINTED_F_COEFFICIENTS:
        if f[e] != expected:
            printed_ok = False
            first_mismatch = {"exponent": e, "lhs": str(f[e]), "rhs": str(expected)}
            break

    cleared_lhs = eisenstein_e4(order + 1) ** 3 * a * b
    cleared_rhs = (_sum(a, b, 27) * _sum(a, b, 243) ** 3).shift(3)
    j_ok = True
    for e in range(-1, order):
        lhs, rhs = cleared_lhs.coefficient(e), cleared_rhs.coefficient(e)
        if lhs != rhs:
            j_ok = False
            if first_mismatch is None:
                first_mismatch = {"exponent": e, "lhs": str(lhs), "rhs": str(rhs)}
            break

    # closed form in b = a^4, coefficient lists from b^0 up: 256 b (b+54)^3 vs
    # 4b (4b+216)^3, both over the shared denominator (4b-27)^3
    closed_ok = _full_mul([0, 256], _power([54, 1], 3, [1], _full_mul)) == _full_mul(
        [0, 4], _power([216, 4], 3, [1], _full_mul)
    )

    return {
        "order": order,
        "printed_coefficients_match": printed_ok,
        "j_identity_match": j_ok,
        "closed_form_match": closed_ok,
        "first_mismatch": first_mismatch,
        "printed_eta_exponent": PRINTED_ETA_EXPONENT,
        "implemented_eta_exponent": IMPLEMENTED_ETA_EXPONENT,
        "exponent_note": (
            "printed exponent 2 would give q-valuation -1/6; exponent 12 "
            "reproduces the printed integral expansion"
        ),
    }
