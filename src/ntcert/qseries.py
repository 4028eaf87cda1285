"""Truncated Laurent q-expansions with exact coefficients.

A series is a valuation (possibly negative), a coefficient list starting
there, and an exclusive truncation order: coefficients are known exactly
for every exponent below the order.  Arithmetic tracks how far results
stay exact, so identities verified here are coefficient-for-coefficient
statements, never numerics.  Coefficients are kept as given, so the
modular series, built from ints, have int coefficients throughout.

Built on this: the Euler products prod (1 - q^n)^k, the weight-12 eta
quotient t = q^-1 * prod (1-q^n)^12 / prod (1-q^3n)^12 on Gamma0(3), the
j-function via E4^3 / Delta as an independent oracle, and the exact
verification that f = t + 27 satisfies j = f*(f+216)^3/(f-27)^3 together
with its closed-form counterpart 256*(a^4+54)^3*a^4/(4*a^4-27)^3.

The printed source expansion carries exponent 2 on the eta quotient; at
that exponent the q-valuation would be -1/6, which cannot match the
printed integral series.  Exponent 12 reproduces every printed
coefficient, so that is what is implemented, and the verification report
records both facts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InvalidInputError
from .exact import UniPoly
from .exact.power import _power

PRINTED_ETA_EXPONENT = 2
IMPLEMENTED_ETA_EXPONENT = 12

# Printed expansion of f = q^-1 + 15 + 54q - 76q^2 - 243q^3 + 1188q^4 - ...
PRINTED_F_COEFFICIENTS: tuple[tuple[int, int], ...] = (
    (-1, 1),
    (0, 15),
    (1, 54),
    (2, -76),
    (3, -243),
    (4, 1188),
)


class LaurentSeries:
    """Coefficients from `valuation` up to (excluding) `order`, exact throughout."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[Fraction | int], order: int):
        cs = list(coeffs)
        if valuation + len(cs) != order:
            raise InvalidInputError("coefficient count must span valuation..order")
        while cs and cs[0] == 0:
            cs.pop(0)
            valuation += 1
        if not cs:
            valuation = order
        self.valuation = valuation
        self.coeffs: tuple[Fraction | int, ...] = tuple(cs)
        self.order = order

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        return cls.q_power(0, order)

    @classmethod
    def q_power(cls, k: int, order: int) -> "LaurentSeries":
        if k >= order:
            raise InvalidInputError("monomial exponent must lie below the order")
        return cls(k, (1,) + (0,) * (order - k - 1), order)

    @classmethod
    def from_constant(cls, c: Fraction | int, order: int) -> "LaurentSeries":
        if order <= 0:
            raise InvalidInputError("a constant needs order > 0")
        return cls(0, (c,) + (0,) * (order - 1), order)

    # -- access ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> Fraction | int:
        if e >= self.order:
            raise InvalidInputError(f"coefficient of q^{e} is beyond the truncation")
        if e < self.valuation:
            return 0
        return self.coeffs[e - self.valuation]

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise InvalidInputError("cannot extend a truncated series")
        if order <= self.valuation:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation, self.coeffs[: order - self.valuation], order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentSeries):
            return (
                self.valuation == other.valuation
                and self.order == other.order
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.valuation, self.coeffs, self.order))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"q^{self.valuation + i}: {c}" for i, c in enumerate(self.coeffs[:6])
        )
        return f"LaurentSeries({shown}, ... order {self.order})"

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> "LaurentSeries | None":
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentSeries.from_constant(other, self.order)
        return None

    def __add__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        if self.is_zero and o.is_zero:
            return LaurentSeries.zero(order)
        vals = [v for v in (self.valuation, o.valuation) if v < order]
        if not vals:
            return LaurentSeries.zero(order)
        val = min(vals)
        coeffs = [
            self.coefficient(e) + o.coefficient(e) for e in range(val, order)
        ]
        return LaurentSeries(val, coeffs, order)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentSeries.zero(self.order)
            return LaurentSeries(
                self.valuation, [c * other for c in self.coeffs], self.order
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(min(self.order, other.order))
        # exactness horizon: unknown tails contribute from o1+v2 and o2+v1
        order = min(self.order + other.valuation, other.order + self.valuation)
        val = self.valuation + other.valuation
        length = order - val
        out = [0] * length
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            jmax = min(len(other.coeffs), length - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return LaurentSeries(val, out, order)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentSeries":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            if self.order < 1:
                raise InvalidInputError("cannot represent 1 below order 1")
            return LaurentSeries.one(self.order)
        return _power(self, k, None)

    def inverse(self) -> "LaurentSeries":
        """Inverse Laurent series; valuation negates, known length is preserved."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero series")
        n = self.order - self.valuation
        a = self.coeffs
        lead = a[0]
        # +-1 is its own inverse, so an int series with a unit lead stays int;
        # int / int would give a float
        inv_lead = lead if lead in (1, -1) else 1 / Fraction(lead)
        b = [0] * n
        b[0] = inv_lead
        for k in range(1, n):
            acc = 0
            for i in range(1, min(k, len(a) - 1) + 1):
                acc += a[i] * b[k - i]
            b[k] = -acc * inv_lead
        return LaurentSeries(-self.valuation, b, -self.valuation + n)

    def dilate(self, k: int, order: int | None = None) -> "LaurentSeries":
        """Substitute q -> q^k (k >= 1); exponents scale by k."""
        if k < 1:
            raise InvalidInputError("dilation factor must be >= 1")
        new_order = self.order * k if order is None else min(order, self.order * k)
        val = self.valuation * k
        if val >= new_order:
            return LaurentSeries.zero(new_order)
        out = [0] * (new_order - val)
        for i, c in enumerate(self.coeffs):
            e = (self.valuation + i) * k
            if e < new_order:
                out[e - val] = c
        return LaurentSeries(val, out, new_order)

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by q^d."""
        return LaurentSeries(self.valuation + d, self.coeffs, self.order + d)


# -- the modular series -----------------------------------------------------------


def euler_pow(k: int, order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^n)^k to the given order, by iterated sparse products."""
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    base = [0] * order
    base[0] = 1
    for n in range(1, order):
        # multiply in place by (1 - q^n)
        for e in range(order - 1, n - 1, -1):
            base[e] -= base[e - n]
    return LaurentSeries(0, base, order) ** k


def hauptmodul_t(order: int) -> LaurentSeries:
    """t = q^-1 * prod (1-q^n)^12 / prod (1-q^3n)^12, to the given order."""
    if order < 2:
        raise InvalidInputError("order must be >= 2")
    work = order + 2
    numer = euler_pow(12, work)
    denom = numer.dilate(3, work)
    t = (numer * denom.inverse()).shift(-1)
    return t.truncate(order)


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


def modular_delta(order: int) -> LaurentSeries:
    """Delta = q * prod (1 - q^n)^24."""
    if order < 2:
        raise InvalidInputError("order must be >= 2")
    return euler_pow(24, order - 1).shift(1)


def j_series(order: int) -> LaurentSeries:
    """The j-function as E4^3 / Delta: the independent expansion oracle."""
    if order < 2:
        raise InvalidInputError("order must be >= 2")
    work = order + 2
    e4 = eisenstein_e4(work)
    delta = modular_delta(work)
    return (e4**3 * delta.inverse()).truncate(order)


def verify_eta_identity(order: int) -> dict:
    """Exact verification of the eta-quotient / j-invariant identity.

    Three checks: (i) t + 27 reproduces the printed coefficients; (ii)
    j = E4^3/Delta equals f*(f+216)^3/(f-27)^3 mod q^order; (iii) the closed
    form 256*(a^4+54)^3*a^4/(4a^4-27)^3 equals the same rational function
    under f = 4*a^4, by polynomial cross-multiplication.

    (ii) is checked without series division, over the integers: (f-27)^3 =
    t^3 is q^-3 times a unit series and Delta is q times one, so it holds
    exactly when E4^3*(f-27)^3 = f*(f+216)^3*Delta mod q^(order-2).  The
    exponents -3 .. order-3 need the series at order + 2.

    ``first_mismatch`` gives the first printed coefficient that differs or,
    failing that, the first exponent of (ii) at which the sides differ, with
    "lhs" from E4^3*(f-27)^3 and "rhs" from f*(f+216)^3*Delta.
    """
    if order < 6:
        raise InvalidInputError("order must be >= 6")
    work = order + 2
    t = hauptmodul_t(work)
    f = t + 27

    printed_ok = True
    first_mismatch = None
    for e, expected in PRINTED_F_COEFFICIENTS:
        got = f.coefficient(e)
        if got != expected:
            printed_ok = False
            first_mismatch = {"exponent": e, "lhs": str(got), "rhs": str(expected)}
            break

    e4_side = eisenstein_e4(work) ** 3 * t**3
    f_side = f * (f + 216) ** 3 * modular_delta(work)
    j_ok = True
    for e in range(-3, order - 2):
        lhs, rhs = e4_side.coefficient(e), f_side.coefficient(e)
        if lhs != rhs:
            j_ok = False
            if first_mismatch is None:
                first_mismatch = {"exponent": e, "lhs": str(lhs), "rhs": str(rhs)}
            break

    # closed form in a = a1: 256 a^4 (a^4+54)^3 vs 4a^4 (4a^4+216)^3, both
    # over the shared denominator (4a^4-27)^3
    a4 = UniPoly.monomial(4)
    closed_ok = 256 * a4 * (a4 + 54) ** 3 == 4 * a4 * (4 * a4 + 216) ** 3

    report = {
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
    return report
