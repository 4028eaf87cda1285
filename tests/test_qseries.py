import random
from fractions import Fraction

import pytest

from ntcert.errors import InvalidInputError
from ntcert.qseries import (
    LaurentSeries,
    _mul,
    eisenstein_e4,
    euler_pow,
    hauptmodul_t,
    j_series,
    modular_delta,
    verify_eta_identity,
)


def random_series(rng, order=16):
    """An int series with lead +-1, the only kind that has an int inverse."""
    val = rng.randint(-2, 2)
    coeffs = [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(order - val - 1)]
    return LaurentSeries(val, coeffs, order)


def random_int_list(rng):
    """1 to 60 signed ints of up to 200 bits, sometimes padded with zeros at either end."""
    big = 2 ** rng.choice((1, 7, 8, 63, 64, 200))
    body = [rng.choice((-big, big, 0, rng.randint(-big, big))) for _ in range(rng.randint(1, 50))]
    zeros = rng.choice((0, 0, 1, 5))
    padded = [0] * zeros + body + [0] * rng.choice((0, 0, 1, 5))
    return padded[: rng.randint(1, 60)]


def schoolbook(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def pentagonal_expansion(order):
    """Euler's pentagonal number theorem as an independent oracle."""
    coeffs = [Fraction(0)] * order
    k = 0
    while True:
        k += 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < order:
                coeffs[e] += Fraction((-1) ** k)
        if k * (3 * k - 1) // 2 >= order:
            break
    coeffs[0] = Fraction(1)
    return coeffs


def naive_product_power(k, order):
    """prod (1 - q^n)^k by multiplying one factor at a time, k separate passes."""
    coeffs = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for _ in range(k):
        for n in range(1, order):
            prev = list(coeffs)
            for e in range(n, order):
                coeffs[e] -= prev[e - n]
    return coeffs


def test_euler_pentagonal():
    series = euler_pow(1, 12)
    expected = pentagonal_expansion(12)
    assert [series.coefficient(e) for e in range(12)] == expected


def test_euler_power_24_matches_naive_expansion():
    series = euler_pow(24, 6)
    naive = naive_product_power(24, 6)
    assert [series.coefficient(e) for e in range(6)] == naive
    assert naive[:4] == [1, -24, 252, -1472]


def test_euler_zero_power():
    series = euler_pow(0, 6)
    assert [series.coefficient(e) for e in range(6)] == [1, 0, 0, 0, 0, 0]


def test_ring_laws_random():
    rng = random.Random(90)
    for _ in range(30):
        A, B, C = (random_series(rng) for _ in range(3))
        lhs = (A * B) * C
        rhs = A * (B * C)
        assert lhs.valuation == rhs.valuation and lhs.order == rhs.order
        assert lhs.coeffs == rhs.coeffs
        prod = A * A.inverse()
        for e in range(prod.valuation, prod.order):
            assert prod.coefficient(e) == (1 if e == 0 else 0)
        assert (A**-2 * A**2).coeffs == prod.coeffs


def test_product_kernel_matches_schoolbook():
    rng = random.Random(28)
    for _ in range(300):
        a, b = random_int_list(rng), random_int_list(rng)
        full = len(a) + len(b) - 1
        for n in (1, rng.randint(1, full), full, full + rng.randint(1, 5)):
            assert _mul(a, b, n) == schoolbook(a, b, n)


def test_unit_series_times_its_inverse_is_one():
    rng = random.Random(29)
    for _ in range(60):
        length = rng.randint(1, 60)
        big = 2 ** rng.choice((1, 3, 64))
        coeffs = [rng.choice((1, -1))] + [rng.randint(-big, big) for _ in range(length - 1)]
        val = rng.randint(-3, 3)
        A = LaurentSeries(val, coeffs, val + length)
        inv = A.inverse()
        assert (inv.valuation, inv.order) == (-val, length - val)
        prod = A * inv
        assert (prod.valuation, prod.order) == (0, length)
        assert prod.coeffs == (1,) + (0,) * (length - 1)


def test_dilation_reindexes_exactly():
    series = euler_pow(12, 8)
    dilated = series.dilate(3)
    for e in range(dilated.order):
        expected = series.coefficient(e // 3) if e % 3 == 0 else Fraction(0)
        assert dilated.coefficient(e) == expected


def test_hauptmodul_leading_behavior():
    t = hauptmodul_t(8)
    assert t.valuation == -1
    assert t.coefficient(-1) == 1
    assert t.coefficient(0) == -12


def test_hauptmodul_plus_27_printed_coefficients():
    f = hauptmodul_t(8) + 27
    printed = {-1: 1, 0: 15, 1: 54, 2: -76, 3: -243, 4: 1188}
    for e, c in printed.items():
        assert f.coefficient(e) == c


def test_e4_and_delta():
    e4 = eisenstein_e4(5)

    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    assert e4.coefficient(0) == 1
    for n in range(1, 5):
        assert e4.coefficient(n) == 240 * sigma3(n)
    delta = modular_delta(6)
    assert delta.valuation == 1 and delta.coefficient(1) == 1


def test_j_series_leading_terms():
    j = j_series(4)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884


def test_j_series_integral_coefficients():
    j = j_series(20)
    for e in range(-1, 20):
        assert j.coefficient(e).denominator == 1


def test_verify_identity_multiple_orders():
    verdicts = []
    for order in (8, 16, 24):
        report = verify_eta_identity(order)
        verdicts.append(
            (
                report["printed_coefficients_match"],
                report["j_identity_match"],
                report["closed_form_match"],
            )
        )
        assert report["first_mismatch"] is None
        assert report["implemented_eta_exponent"] == 12
        assert report["printed_eta_exponent"] == 2
    assert verdicts[0] == verdicts[1] == verdicts[2] == (True, True, True)


def test_order_guard():
    with pytest.raises(InvalidInputError):
        verify_eta_identity(4)
    with pytest.raises(InvalidInputError):
        euler_pow(1, 0)


def test_series_access_guards():
    s = LaurentSeries(0, (1, 2), 2)
    assert s.coefficient(-5) == 0
    with pytest.raises(InvalidInputError):
        s.coefficient(2)
    with pytest.raises(InvalidInputError, match="zero series"):
        LaurentSeries(4, (), 4).inverse()


def test_shift_and_truncate():
    s = euler_pow(1, 10)
    shifted = s.shift(-1)
    assert shifted.valuation == -1 and shifted.coefficient(-1) == 1
    cut = s.truncate(4)
    assert cut.order == 4
    assert [cut.coefficient(e) for e in range(4)] == [
        s.coefficient(e) for e in range(4)
    ]


@pytest.mark.parametrize("order", [8, 24, 300])
def test_identity_check_reaches_exactly_q_to_the_order_minus_1(monkeypatch, order):
    """A change to f at q^(order-1) is caught; one at q^order is beyond the check.

    hauptmodul_t may be asked for more than `order` terms; a change past its
    truncation is no change.
    """
    from ntcert import qseries

    real = qseries.hauptmodul_t

    def perturbed(exponent):
        def t(n):
            series = real(n)
            if exponent >= n:
                return series
            coeffs = list(series.coeffs)
            coeffs[exponent - series.valuation] += 1
            return LaurentSeries(series.valuation, coeffs, n)

        return t

    monkeypatch.setattr(qseries, "hauptmodul_t", perturbed(order - 1))
    report = verify_eta_identity(order)
    assert report["printed_coefficients_match"] is True
    assert report["j_identity_match"] is False
    assert report["first_mismatch"] is not None

    monkeypatch.setattr(qseries, "hauptmodul_t", perturbed(order))
    report = verify_eta_identity(order)
    assert report["printed_coefficients_match"] is True
    assert report["j_identity_match"] is True
    assert report["first_mismatch"] is None


def test_modular_series_have_int_coefficients():
    for series in (
        euler_pow(24, 30),
        hauptmodul_t(30),
        eisenstein_e4(30),
        modular_delta(30),
        j_series(30),
    ):
        assert series.coeffs and all(type(c) is int for c in series.coeffs)


def test_inverse_refuses_a_lead_other_than_a_unit():
    for lead in (2, -2, 3):
        A = LaurentSeries(-1, [lead, 3, -1, 5, 0, 7, 1, -4], 7)
        with pytest.raises(InvalidInputError, match="lead"):
            A.inverse()
        with pytest.raises(InvalidInputError, match="lead"):
            A ** -1
