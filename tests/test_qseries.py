import random
from fractions import Fraction

import pytest

import series_oracle as oracle
from ntcert import qseries
from ntcert.errors import InvalidInputError
from ntcert.qseries import LaurentSeries, _mul, eisenstein_e4, euler_pow, verify_eta_identity


def random_series(rng, order=16):
    """An int series with lead +-1, the only kind that has an int inverse."""
    val = rng.randint(-2, 2)
    coeffs = [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(order - val - 1)]
    return LaurentSeries(val, coeffs, order)


def inverse(A):
    """1/A by the oracle's schoolbook division, as a LaurentSeries."""
    n = A.order - A.valuation
    val, coeffs = oracle.div((0, [1] + [0] * (n - 1)), (A.valuation, list(A.coeffs)))
    return LaurentSeries(val, coeffs, val + n)


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
        prod = A * inverse(A)
        for e in range(prod.valuation, prod.order):
            assert prod.coefficient(e) == (1 if e == 0 else 0)
        assert (inverse(A) ** 2 * A**2).coeffs == prod.coeffs


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
        inv = inverse(A)
        assert (inv.valuation, inv.order) == (-val, length - val)
        prod = A * inv
        assert (prod.valuation, prod.order) == (0, length)
        assert prod.coeffs == (1,) + (0,) * (length - 1)


def test_dilation_reindexes_exactly():
    series = euler_pow(12, 8)
    for order, expected_order in ((24, 24), (30, 24), (10, 10)):
        dilated = series.dilate(3, order)
        assert dilated.order == expected_order
        for e in range(dilated.order):
            expected = series.coefficient(e // 3) if e % 3 == 0 else Fraction(0)
            assert dilated.coefficient(e) == expected


def test_hauptmodul_leading_behavior():
    val, t = oracle.hauptmodul_t(8)
    assert val == -1
    assert t[:2] == (1, -12)


def test_hauptmodul_plus_27_printed_coefficients(monkeypatch):
    """The oracle's t + 27 is the printed series, and so is verify_eta_identity's
    f: each printed value, made wrong in turn, is reported against f's."""
    printed = {-1: 1, 0: 15, 1: 54, 2: -76, 3: -243, 4: 1188}
    val, f = oracle.plus(oracle.hauptmodul_t(8), 27)
    assert dict(zip(range(val, 5), f)) == printed
    assert verify_eta_identity(8)["printed_coefficients_match"] is True
    for e, c in printed.items():
        wrong = tuple((k, v + (k == e)) for k, v in printed.items())
        monkeypatch.setattr(qseries, "PRINTED_F_COEFFICIENTS", wrong)
        report = verify_eta_identity(8)
        assert report["printed_coefficients_match"] is False
        assert report["first_mismatch"] == {"exponent": e, "lhs": str(c), "rhs": str(c + 1)}


def test_e4_and_delta():
    e4 = eisenstein_e4(5)

    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    assert e4.coefficient(0) == 1
    for n in range(1, 5):
        assert e4.coefficient(n) == 240 * sigma3(n)
    val, delta = oracle.delta(6)
    assert val == 1 and delta[0] == 1
    # Delta = q^3 A^2 for A = q^-1 prod (1 - q^n)^12, as verify_eta_identity uses
    assert (euler_pow(12, 6) ** 2).coeffs == delta


def test_j_series_leading_terms():
    val, j = oracle.j(5)
    assert val == -1
    assert j[:4] == [1, 744, 196884, 21493760]


def test_j_series_integral_coefficients():
    val, j = oracle.j(21)
    assert val == -1 and len(j) == 21
    assert all(type(c) is int for c in j)
    # j * Delta = E4^3, multiplied by the package
    product = LaurentSeries(val, j, val + 21) * euler_pow(24, 22).shift(1)
    assert product.coeffs == (eisenstein_e4(21) ** 3).coeffs


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
    with pytest.raises(InvalidInputError, match="k >= 0"):
        LaurentSeries(4, (), 4) ** -1


def test_shift_and_truncate():
    s = euler_pow(1, 10)
    shifted = s.shift(-1)
    assert shifted.valuation == -1 and shifted.coefficient(-1) == 1
    cut = s.dilate(1, 4)
    assert cut.order == 4
    assert [cut.coefficient(e) for e in range(4)] == [
        s.coefficient(e) for e in range(4)
    ]


def planted_e4(exponent):
    """eisenstein_e4 with 1 added at q^exponent, built one term longer than
    asked, so that a change just past the asked order is in the series."""
    real = eisenstein_e4

    def e4(n):
        coeffs = list(real(n + 1).coeffs)
        coeffs[exponent] += 1
        return LaurentSeries(0, coeffs, n + 1)

    return e4


@pytest.mark.parametrize("order", [8, 24, 300])
def test_identity_check_reaches_exactly_q_to_the_order_minus_1(monkeypatch, order):
    """A change to E4 at q^order shows in lhs = E4^3*A*B at q^(order-1), the
    last exponent the report covers, and is caught; one at q^(order+1), in
    the series verify_eta_identity multiplies, is beyond the check.
    """
    monkeypatch.setattr(qseries, "eisenstein_e4", planted_e4(order))
    report = verify_eta_identity(order)
    assert report["printed_coefficients_match"] is True
    assert report["j_identity_match"] is False
    assert report["first_mismatch"]["exponent"] == order - 1

    monkeypatch.setattr(qseries, "eisenstein_e4", planted_e4(order + 1))
    report = verify_eta_identity(order)
    assert report["printed_coefficients_match"] is True
    assert report["j_identity_match"] is True
    assert report["first_mismatch"] is None


def test_cleared_check_first_mismatch_is_the_uncleared_ones_plus_2(monkeypatch):
    """At every order 6 .. 60 both checks pass, and with 1 added to E4 at
    each q^k, k < order, the cleared identity first fails 2 above where the
    oracle's E4^3*(f-27)^3 = f*(f+216)^3*Delta does: the two differ by the
    factor A^2/B^4, q^-2 times a unit series."""
    for order in range(6, 61):
        assert verify_eta_identity(order)["first_mismatch"] is None
        assert oracle.old_first_mismatch(order, oracle.e4(order + 2)) is None
        for k in range(order):
            val, e4 = oracle.e4(order + 2)
            e4[k] += 1
            old = oracle.old_first_mismatch(order, (val, e4))
            monkeypatch.setattr(qseries, "eisenstein_e4", planted_e4(k))
            report = verify_eta_identity(order)
            monkeypatch.undo()
            assert report["j_identity_match"] is False
            assert report["first_mismatch"]["exponent"] == old + 2 == k - 1


def test_modular_series_have_int_coefficients():
    for series in (
        euler_pow(24, 30),
        euler_pow(12, 30).dilate(3, 30),
        eisenstein_e4(30),
        eisenstein_e4(30) ** 3 * euler_pow(12, 30).shift(-1),
    ):
        assert series.coeffs and all(type(c) is int for c in series.coeffs)


def test_inverse_refuses_a_lead_other_than_a_unit():
    """Only the oracle divides, and only by a lead +-1; the package has no
    inverse, so every negative power is refused."""
    for lead in (2, -2, 3, 1, -1):
        A = LaurentSeries(-1, [lead, 3, -1, 5, 0, 7, 1, -4], 7)
        if lead not in (1, -1):
            with pytest.raises(ValueError, match="lead"):
                oracle.div((0, [1] * 8), (-1, list(A.coeffs)))
        with pytest.raises(InvalidInputError, match="k >= 0"):
            A ** -1
