import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt

import pytest

from ntcert import cli, coverings
from ntcert.coverings import (
    _FERMAT_BOUND_MAX,
    RamificationData,
    _barlow_candidates,
    _barlow_values,
    _positive_power_triples,
    _sparse_gcd_degree,
    covering_report,
    fermat_search,
    m_for_prime,
    model_from_n,
    psi_identities,
    quotient_genus,
    rh_genus,
    solve_eq5,
    superelliptic_genus,
    superelliptic_model,
    triangle_checks,
    triangle_nonsingular,
    trivial_solutions,
)
from ntcert.errors import InvalidInputError
from ntcert.exact import BiPoly, UniPoly, primes_up_to


# -- the congruence ---------------------------------------------------------------


def test_solve_eq5_examples():
    assert solve_eq5(7) == [2, 4]
    assert solve_eq5(5) == []
    assert solve_eq5(3) == [1]
    with pytest.raises(InvalidInputError):
        solve_eq5(6)


def test_solve_eq5_characterization_below_1000():
    for p in primes_up_to(999):
        solutions = [n for n in range(1, p) if (1 + n + n * n) % p == 0]
        assert solve_eq5(p) == solutions
        assert bool(solutions) == (p == 3 or p % 6 == 1)
        if p % 6 == 1:
            assert len(solutions) == 2
            n1, n2 = solutions
            assert n1 * n2 % p == 1


def test_solve_eq5_matches_the_brute_force_scan_below_3000():
    for p in primes_up_to(2999):
        assert solve_eq5(p) == [n for n in range(1, p) if (1 + n + n * n) % p == 0], p


def test_model_examples():
    m = model_from_n(7, 2)
    assert (m.r, m.s) == (2, 1)
    assert (m.w0, m.w1, m.w_inf) == (2, 1, 4)
    assert (m.w0 + m.w1 + m.w_inf) % 7 == 0
    with pytest.raises(InvalidInputError, match=r"1 \+ n \+ n\^2 != 0 mod 7 for n = 3"):
        model_from_n(7, 3)
    # n = 0 is no solution; n = p + 2 meets the congruence but lies outside 1..p-1
    for n in (0, 7 + 2):
        with pytest.raises(InvalidInputError, match=rf"1 \+ n \+ n\^2 != 0 mod 7 for n = {n}$"):
            model_from_n(7, n)
    with pytest.raises(InvalidInputError, match="9 is not prime"):
        model_from_n(9, 2)
    with pytest.raises(InvalidInputError):
        superelliptic_model(7, 7, 1)


def test_model_relates_to_triangle_curve():
    # n = m - 1 links the two presentations; for p = 7, m = 3 and n = 2
    assert m_for_prime(7) == 3
    assert 3 - 1 in solve_eq5(7)
    assert m_for_prime(13) == 4
    assert m_for_prime(19) is None
    assert m_for_prime(3) == 2


# -- triangle curve -----------------------------------------------------------------


def test_triangle_m3_fixed_points_on_curve():
    report = triangle_checks(3)
    assert report["p"] == 7
    assert report["shift_preserves_curve"]
    assert report["shift_permutes_coordinate_points"]
    assert report["fixed_points_projectively_fixed"]
    assert report["fixed_points_on_curve"] is True


def test_triangle_m2_fixed_points_off_curve():
    report = triangle_checks(2)
    assert report["p"] == 3
    assert report["fixed_points_on_curve"] is False
    assert report["fixed_points_projectively_fixed"]
    with pytest.raises(InvalidInputError):
        triangle_checks(1)  # m = 2 is the least


def test_triangle_on_curve_rule_two_routes():
    for m in range(2, 21):
        report = triangle_checks(m)
        p = m * m - m + 1
        # route 1: m mod 3; route 2: p mod 3, computed independently
        assert report["fixed_points_on_curve"] == (m % 3 != 2)
        assert report["fixed_points_on_curve"] == (p % 3 != 0)
        assert report["on_curve_matches_m_mod_3"] and report["on_curve_matches_p_mod_3"]


def test_triangle_nonsingular_small_m():
    for m in range(2, 7):
        assert triangle_nonsingular(m) is True


@pytest.mark.parametrize("p", [8011, 9901, 10303])
def test_triangle_nonsingular_at_the_benchmark_covering_primes(p):
    m = m_for_prime(p)
    assert m in (90, 100, 102)
    assert triangle_nonsingular(m) is True


def _dense(h: dict) -> UniPoly:
    return sum((UniPoly.monomial(e, c) for e, c in h.items()), UniPoly.zero())


def _sparse(f: UniPoly) -> dict:
    return {e: c for e, c in enumerate(f.coeffs) if c}


def _random_poly(rng, degree: int) -> UniPoly:
    """A random polynomial of the given degree with a nonzero constant term."""
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or Fraction(1)
    coeffs[-1] = coeffs[-1] or Fraction(-1)
    return UniPoly(coeffs)


def test_sparse_gcd_degree_matches_the_dense_gcd():
    """Y^v1*A(Y^g) and Y^v2*B(Y^g) with a shared factor, and pairs of random
    sparse exponents, against Euclid on the dense polynomials."""
    rng = random.Random(27)
    beyond_y_powers = 0
    for trial in range(50):
        if trial % 5 == 4:
            h1, h2 = ({rng.randint(0, 40): Fraction(rng.choice((-3, -1, 1, 2)))
                       for _ in range(rng.randint(1, 4))} for _ in range(2))
        else:
            g = rng.randint(1, 6)
            inflate = UniPoly.monomial(g)
            shared = _random_poly(rng, rng.randint(0, 2))
            h1, h2 = (
                _sparse((_random_poly(rng, rng.randint(0, 3)) * shared).compose(inflate)
                        * UniPoly.monomial(rng.randint(0, 4)))
                for _ in range(2)
            )
        expected = _dense(h1).gcd(_dense(h2)).degree
        assert _sparse_gcd_degree(h1, h2) == expected, (h1, h2)
        beyond_y_powers += expected > min(min(h1), min(h2))
    assert beyond_y_powers >= 20  # the gcd of the deflated polynomials is nonconstant


def test_sparse_gcd_degree_examples():
    one = Fraction(1)
    assert _sparse_gcd_degree({6: one, 0: -one}, {4: one, 0: -one}) == 2  # Y^2 - 1
    # Y^3*(Y^2 + 1) and Y^5*(Y^4 - 1) share Y^3*(Y^2 + 1)
    assert _sparse_gcd_degree({5: one, 3: one}, {9: one, 5: -one}) == 5
    assert _sparse_gcd_degree({7: one}, {2: one, 0: one}) == 0
    assert _sparse_gcd_degree({7: one}, {3: -one}) == 3


def test_triangle_partials_have_the_gcd_the_dense_route_finds():
    """The sparse h1, h2 of triangle_nonsingular: two terms each, and the
    same gcd degree (zero) as the dense Euclid, for small m."""
    for m in range(2, 9):
        x_solved, second = BiPoly({(0, m): Fraction(-1, m)}), BiPoly.second()
        fx = BiPoly({(m - 1, 1): m, (0, 0): 1})
        fy = BiPoly({(m, 0): 1, (0, m - 1): m})
        h1, h2 = (f.substitute(x_solved, second).as_sparse_second() for f in (fx, fy))
        assert len(h1) == len(h2) == 2
        assert _sparse_gcd_degree(h1, h2) == _dense(h1).gcd(_dense(h2)).degree == 0


def test_psi_identity_reports():
    for m in range(2, 13):
        report = psi_identities(m)
        assert report["monomial_identity"]
        assert report["line_substitution_identity"]
        assert report["mobius_three_cycle"]
        assert report["extension_values_on_line"]


def test_psi_m3_matches_superelliptic_model():
    # v^7 = u^2 (u - 1) is y^7 = x^n (x-1) with n = m - 1 = 2
    m = 3
    n = m - 1
    assert n in solve_eq5(7)
    assert model_from_n(7, n).r == m - 1


def test_psi_exponent_arithmetic_directly():
    # a b^(m-1) / c^m for a=(m,1,0), b=(0,m,1), c=(1,0,m) in (X,Y,Z) exponents
    for m in (2, 3, 5, 8):
        N = m * m - m + 1
        a, b, c = (m, 1, 0), (0, m, 1), (1, 0, m)
        combo = tuple(a[i] + (m - 1) * b[i] - m * c[i] for i in range(3))
        assert combo == (0, N, -N)


# -- Riemann-Hurwitz -------------------------------------------------------------------


def test_rh_genus_examples():
    assert rh_genus(RamificationData(7, 0, ((7,), (7,), (7,)))) == 3
    assert rh_genus(RamificationData(2, 0, ((2,), (2,)))) == 0
    # degree 3, two totally ramified points: 2g - 2 = -6 + 4, so genus 0
    assert rh_genus(RamificationData(3, 0, ((3,), (3,)))) == 0


def test_rh_genus_validation():
    with pytest.raises(InvalidInputError):
        rh_genus(RamificationData(3, 0, ((2,),)))
    with pytest.raises(InvalidInputError):
        rh_genus(RamificationData(3, 0, ((3, 0),)))
    with pytest.raises(InvalidInputError, match="is not realizable"):
        rh_genus(RamificationData(2, 0, ((2,),)))  # odd total


def test_superelliptic_genus_formula():
    for p in primes_up_to(99):
        if p < 5:
            continue
        assert superelliptic_genus(p) == (p - 1) // 2


def test_quotient_genus():
    assert quotient_genus(7) == 1
    assert quotient_genus(13) == 2
    assert quotient_genus(3) == 1
    with pytest.raises(InvalidInputError, match="no order-3 symmetry for p = 5"):
        quotient_genus(5)
    for p in primes_up_to(200):
        if p % 6 == 1:
            g = quotient_genus(p)
            assert g == (p - 1) // 6
            # consistency through the degree-3 quotient map
            assert rh_genus(RamificationData(3, g, ((3,), (3,)))) == superelliptic_genus(p)


# -- Fermat search -----------------------------------------------------------------------


def brute_force_fermat(p, bound):
    sols = []
    for A in range(-bound, bound + 1):
        for B in range(-bound, bound + 1):
            for C in range(-bound, bound + 1):
                if A**p == B**p + C**p:
                    sols.append((A, B, C))
    return sorted(sols)


def test_fermat_matches_exhaustive_small():
    for p in (3, 5, 7):
        assert sorted(trivial_solutions(8) + fermat_search(p, 8)) == brute_force_fermat(p, 8)


def test_fermat_trivial_only():
    assert fermat_search(3, 100) == []
    assert fermat_search(7, 50) == []
    trivial = set(trivial_solutions(100))
    assert (1, 1, 0) in trivial
    assert (5, 0, 5) in trivial and (0, 4, -4) in trivial


def test_fermat_trivial_count():
    # (a,a,0), (a,0,a), (0,a,-a) for nonzero |a| <= H, plus the origin, sorted
    for H in (1, 12, 30):
        solutions = trivial_solutions(H)
        assert len(solutions) == 6 * H + 1
        assert solutions == sorted(set(solutions))


def test_fermat_validation():
    with pytest.raises(InvalidInputError):
        fermat_search(11, 10)
    with pytest.raises(InvalidInputError):
        fermat_search(3, 0)
    with pytest.raises(InvalidInputError):
        trivial_solutions(0)


def set_and_sort_solutions(p, bound):
    """fermat_search's former construction: every solution into a set, then sorted."""
    solutions = {(0, 0, 0)}
    for a in range(-bound, bound + 1):
        if a != 0:
            solutions |= {(a, a, 0), (a, 0, a), (0, a, -a)}
    for x, y, z in _positive_power_triples(p, bound):
        for pa, pb, pc in permutations((x, y, z)):
            for sa, sb, sc in product((1, -1), repeat=3):
                A, B, C = sa * pa, sb * pb, sc * pc
                if max(abs(A), abs(B), abs(C)) <= bound and A**p == B**p + C**p:
                    solutions.add((A, B, C))
    return sorted(solutions)


def test_full_listing_matches_the_set_and_sort_construction(capsys):
    for p in (3, 5, 7):
        for bound in range(1, 41):
            code = cli.main(["fermat-search", str(p), "--bound", str(bound), "--full"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert doc["solutions"] == [list(t) for t in set_and_sort_solutions(p, bound)]
            assert doc["solutions_found"] == len(doc["solutions"])
            assert doc["trivial_count"] == sum(0 in t for t in doc["solutions"])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_difference_and_its_cofactor_share_at_most_p(p):
    """The lemma behind the Barlow relations: for coprime 1 <= y < z,
    Q = (z^p - y^p)/(z - y) has gcd(z - y, Q) in {1, p}, and v_p(Q) = 1
    whenever p divides z - y."""
    for z in range(2, 201):
        for y in range(1, z):
            if gcd(y, z) != 1:
                continue
            d = z - y
            Q = (z**p - y**p) // d
            assert gcd(d, Q) in (1, p)
            if d % p == 0:
                assert Q % p == 0 and Q % (p * p) != 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_barlow_candidates_are_every_triple_the_relations_allow(p):
    bound = 150
    powers = {scale * t**p for scale in (1, p ** (p - 1)) for t in range(1, 2 * bound)}
    differences = {v for v in powers if v <= bound}
    sums = {v for v in powers if v <= 2 * bound}
    brute = [
        (x, y, z)
        for z in range(2, bound + 1)
        for y in range(1, z)
        if z - y in differences
        for x in range(1, y + 1)
        if z - x in differences and x + y in sums
    ]
    assert sorted(_barlow_candidates(p, bound)) == sorted(brute)
    assert len(brute) > 0



@pytest.mark.parametrize("p", [3, 5, 7])
def test_band_values_are_differences_of_pth_powers(p):
    """The values the search allows for the differences z - y and z - x, and
    for x + y, are the v with v or p*v a p-th power: ascending, each once,
    as the two kinds never meet."""
    limit = max(20_000, p ** (p - 1))
    pth_powers = {s**p for s in range(1, int((p * limit) ** (1 / p)) + 2)}
    for cut in (1, 2**p, p ** (p - 1) - 1, p ** (p - 1), limit):
        values = _barlow_values(p, cut)
        assert values == sorted(set(values))
        assert values == [v for v in range(1, cut + 1) if v in pth_powers or p * v in pth_powers]
        assert not any(v in pth_powers and p * v in pth_powers for v in values)


def test_band_screen_finds_every_pythagorean_triple(monkeypatch):
    """No positive solution exists at p = 3, 5, 7, so the confirm-and-scale
    step of _positive_power_triples is run at p = 2, with the primitive
    Pythagorean triples (Euclid's formula) among non-solutions as the
    candidates: it must keep every multiple up to the bound and nothing else."""

    def candidates(p, bound):
        primitive = [
            (*sorted((m * m - n * n, 2 * m * n)), m * m + n * n)
            for m in range(2, isqrt(bound) + 1)
            for n in range(1 + m % 2, m, 2)
            if gcd(m, n) == 1 and m * m + n * n <= bound
        ]
        return [(1, 1, 2), (2, 3, 4), *primitive, (6, 8, 10)]

    monkeypatch.setattr(coverings, "_barlow_candidates", candidates)
    for bound in (1, 2, 5, 12, 13, 300):
        oracle = sorted(
            (x, y, isqrt(x * x + y * y))
            for x in range(1, bound + 1)
            for y in range(x, bound + 1)
            if isqrt(x * x + y * y) ** 2 == x * x + y * y and x * x + y * y <= bound * bound
        )
        assert _positive_power_triples(2, bound) == oracle
    assert len(oracle) == 209


def test_bounds_beyond_the_proven_range_are_refused_before_allocating():
    # the address-space cap turns an unchecked bound into a MemoryError, not a full machine;
    # only the listing of the trivial solutions is capped, the search takes any bound
    probe = (
        "import contextlib, io, json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ntcert import cli, coverings\n"
        "from ntcert.errors import InvalidInputError\n"
        "bound = coverings._FERMAT_BOUND_MAX + 1\n"
        "try:\n"
        "    coverings.trivial_solutions(bound)\n"
        "except InvalidInputError as exc:\n"
        "    print('refused:', exc)\n"
        "for flags in (['--full'], []):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(['fermat-search', '7', '--bound', str(bound), *flags])\n"
        "    counted = json.loads(out.getvalue())['trivial_count'] if code == 0 else None\n"
        "    print(json.dumps([code, counted, err.getvalue()]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    reason = f"bound must be <= {_FERMAT_BOUND_MAX}, as all 6*bound + 1 trivial solutions are listed"
    refused, *runs = run.stdout.splitlines()
    assert refused == f"refused: {reason}"
    assert [json.loads(line) for line in runs] == [
        [2, None, f"error: {reason}\n"],  # --full
        [0, 1_200_000_007, ""],  # 6*bound + 1, counted, not listed
    ]


# -- aggregate report ----------------------------------------------------------------------


def test_covering_report_p7():
    report = covering_report(7)
    assert report["n_solutions"] == [2, 4]
    assert report["quotient_genus"] == 1
    assert report["genus"] == 3
    assert report["m"] == 3
    triangle = report["triangle"]
    assert triangle["fixed_points_on_curve"] is True
    assert all(triangle["identities"].values())


def test_covering_report_p19_has_no_triangle():
    report = covering_report(19)
    assert report["m"] is None and report["triangle"] is None
    assert report["quotient_genus"] == 3


def test_covering_report_invalid_prime():
    with pytest.raises(InvalidInputError, match="no order-3 symmetry for p = 5"):
        covering_report(5)
