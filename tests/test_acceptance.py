"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ntcert import family
from ntcert.cli import ScanConfig, main as cli_main
from ntcert.coverings import (
    RamificationData,
    fermat_search,
    psi_identities,
    quotient_genus,
    rh_genus,
    solve_eq5,
    triangle_checks,
    trivial_solutions,
)
from ntcert.cubicfield import DEFAULT_WITNESS_BOUND, GaloisClass, galois_class
from ntcert.errors import InvalidInputError
from ntcert.exact import BiPoly, primes_up_to
from ntcert.exact.ellcurve import _chord_tangent, _exact_point, _multiple, _on_curve
from ntcert.family import closed_form_j, derive_family, scan_family
from ntcert.jsonio import SCHEMA_VERSION
from ntcert.newton import (
    corner_check,
    default_b_sequence,
    min_universal_degree,
    plan_degrees,
    substitute_st,
)
from ntcert.qseries import verify_eta_identity
from ntcert.scandoc import dumps_scan
from series_oracle import hauptmodul_t, j, plus
from witness_oracle import first_witness


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS: {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def height20_scan():
    params = derive_family(1, 1)
    start = time.perf_counter()
    result = scan_family(params, 20)
    return result, time.perf_counter() - start


def test_criterion_01_printed_eta_coefficients():
    with criterion(1, "eta-quotient series matches the printed coefficients"):
        start = time.perf_counter()
        val, f = plus(hauptmodul_t(8), 27)
        printed = {-1: 1, 0: 15, 1: 54, 2: -76, 3: -243, 4: 1188}
        for e, c in printed.items():
            assert f[e - val] == c
        assert verify_eta_identity(8)["printed_coefficients_match"] is True
        assert time.perf_counter() - start < 1.0


def test_criterion_02_modular_identity_to_order_20():
    with criterion(2, "f(f+216)^3/(f-27)^3 equals E4^3/Delta to order 20"):
        start = time.perf_counter()
        report = verify_eta_identity(20)
        assert report["j_identity_match"] is True
        assert report["first_mismatch"] is None
        val, coeffs = j(4)
        assert val == -1
        assert coeffs[:3] == [1, 744, 196884]
        assert time.perf_counter() - start < 5.0


def test_criterion_03_closed_form_correspondence():
    with criterion(3, "closed-form j equals the f-parametrization and drops a4"):
        report = verify_eta_identity(8)
        assert report["closed_form_match"] is True
        rng = random.Random(100)
        seen = 0
        while seen < 25:
            a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            a4 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if a1 == 0 or a4 == 0:
                continue
            try:
                curve = derive_family(a1, a4)
            except InvalidInputError:
                continue
            assert curve.j == closed_form_j(a1)
            alt = a4 + rng.randint(1, 5)
            if alt != 0:
                assert derive_family(a1, alt).j == curve.j
            seen += 1


def test_criterion_04_family_scan_certificates(height20_scan):
    with criterion(4, "height-20 scan yields >= 10 fully certified fibers"):
        result, elapsed = height20_scan
        assert elapsed < 120.0
        certs = result.certificates
        assert len(certs) >= 10
        for cert in certs:
            assert cert.disc == cert.sqrt_disc**2  # (a) exact square
            assert cert.galois_class is GaloisClass.C3  # (b)
            # (c) reduction to zero
            assert _on_curve(*_exact_point(cert.curve, family._fiber_point(cert.curve, cert)))
            assert cert.nontorsion_checked_to >= cert.torsion_bound  # (e)
        # (d) pairwise distinctness: every earlier certificate in order, each
        # with the first witness prime of an oracle independent of the scan,
        # on fields classified anew from the fibers
        fields = [galois_class(cert.fiber) for cert in certs]
        assert all(K.galois_class is GaloisClass.C3 for K in fields)
        for i, cert in enumerate(certs):
            assert len(cert.witnesses) == i
            for j, prime in enumerate(cert.witnesses):
                assert prime == first_witness(fields[j], fields[i], DEFAULT_WITNESS_BOUND)


def test_height20_scan_bytes_are_pinned(height20_scan):
    """The bytes of `family-scan --s-height-max 20`, from the fixture's scan."""
    result, _ = height20_scan
    config = ScanConfig(Fraction(1), Fraction(1), 20, 1000, 2, None)
    head = {"schema": SCHEMA_VERSION, "config": config.to_json_dict(), "summary": result.summary()}
    text = dumps_scan(head, result.certificates)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "cad1ec912f8f810a05dbd9ccfb8b423d5b369190110ab96cdd24048bb6252de6"


def test_criterion_05_three_torsion(height20_scan):
    with criterion(5, "(0, a4/a1) has exact order 3; torsion bounds divisible by 3"):
        rng = random.Random(101)
        seen = 0
        while seen < 10:
            a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            a4 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if a1 == 0 or a4 == 0:
                continue
            try:
                params = derive_family(a1, a4)
            except InvalidInputError:
                continue
            # rational points live over Q[x]/(x)
            F, a, P = _exact_point(params, ((), (a4 / a1,), (0, 1)))
            twice = _chord_tangent(F, a, P, P)
            assert twice is not None
            x, y = P
            assert twice == (x, -y - a[0] * x - a[2])  # -P
            assert _chord_tangent(F, a, twice, P) is None
            assert _multiple(F, a, P, 3) is None
            seen += 1
        result, _ = height20_scan
        assert result.certificates
        for cert in result.certificates:
            assert cert.torsion_bound % 3 == 0


def test_criterion_06_congruence_solutions_below_1000():
    with criterion(6, "1+n+n^2 = 0 mod p solvable iff p = 3 or p = 1 mod 6"):
        for p in primes_up_to(999):
            brute = [n for n in range(1, p) if (1 + n + n * n) % p == 0]
            got = solve_eq5(p)
            assert got == brute
            assert bool(got) == (p == 3 or p % 6 == 1)
            if p % 6 == 1:
                assert len(got) == 2


def test_criterion_07_genus_suite():
    with criterion(7, "Riemann-Hurwitz genus values match the case formulas"):
        for p in primes_up_to(99):
            if p < 5:
                continue
            data = RamificationData(p, 0, ((p,), (p,), (p,)))
            assert rh_genus(data) == (p - 1) // 2
        assert quotient_genus(7) == 1
        assert quotient_genus(13) == 2


def test_criterion_08_triangle_suite():
    with criterion(8, "triangle-curve identities pass exactly for m = 2..12"):
        for m in range(2, 13):
            tri = triangle_checks(m)
            psi = psi_identities(m)
            assert tri["shift_preserves_curve"]
            assert tri["shift_permutes_coordinate_points"]
            assert tri["fixed_points_projectively_fixed"]
            assert tri["fixed_points_on_curve"] == (m % 3 != 2)
            assert tri["fixed_points_on_curve"] == ((m * m - m + 1) % 3 != 0)
            assert psi["monomial_identity"]
            assert psi["line_substitution_identity"]
            assert psi["mobius_three_cycle"]


def test_criterion_09_newton_degree_plans():
    with criterion(9, "degree law for 50 corner polynomials and full coverage"):
        rng = random.Random(102)
        bs = default_b_sequence(3)
        done = 0
        while done < 50:
            n = rng.randint(2, 5)
            terms = {(n - 1, 1): Fraction(rng.randint(1, 5))}
            for _ in range(rng.randint(1, 6)):
                i = rng.randint(0, n)
                j = rng.randint(0, n - i)
                if (i, j) == (n, 0):
                    continue
                terms[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            f = BiPoly(terms)
            if f.total_degree != n or not corner_check(f, n):
                continue
            for k1 in range(2, 7):
                for k2 in range(1, k1):
                    expected = k1 * (n - 1) + k2
                    degrees = [substitute_st(f, k1, k2, b)[1] for b in bs]
                    assert expected in degrees, (f, k1, k2, degrees)
            done += 1
        for n in range(2, 7):
            achievable = plan_degrees(n, 60)
            for d in range(min_universal_degree(n), 61):
                assert d in achievable
        assert min_universal_degree(3) == 7


def test_criterion_10_fermat_search_trivial_only():
    with criterion(10, "A^p = B^p + C^p has only trivial solutions to 10^4"):
        start = time.perf_counter()
        for p in (3, 5, 7):
            assert fermat_search(p, 10**4) == []
        assert (1, 1, 0) in set(trivial_solutions(10**4))
        assert time.perf_counter() - start < 30.0


def test_criterion_11_scan_determinism(tmp_path):
    with criterion(11, "identical scan configs produce identical bytes"):
        args = ["family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "8"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
