"""Certificate checks stay on in every way the code can run."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ntcert import cli, cubicfield, family
from ntcert.errors import VerificationError
from ntcert.exact import ellcurve

SRC = Path(__file__).resolve().parent.parent / "src" / "ntcert"


def _raises_assertion_error(node) -> bool:
    exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    # python -O strips an assert, and the CLI maps no AssertionError to an exit code
    assert found == [], "use VerificationError for certificate checks"


def test_optimized_interpreter_emits_the_same_bytes():
    argv = ["-m", "ntcert.cli", "family-scan", "--s-height-max", "3"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, timeout=120, check=True)
        for flags in ([], ["-O"])
    ]
    assert runs[0].stdout
    assert runs[1].stdout == runs[0].stdout


def test_failed_check_exits_3_without_traceback(monkeypatch, capsys):
    """The fiber discriminant identity carries each certificate's C3 class;
    a6 off by one breaks the forced square, so the closed form -4p^3 - 27q^2
    differs from u^2*p^2."""
    real = family.derive_family

    def planted(a1, a4):
        curve = real(a1, a4)
        return ellcurve.WeierstrassCurve(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6 + 1)

    monkeypatch.setattr(family, "derive_family", planted)
    assert cli.main(["family-scan", "--s-height-max", "2"]) == cli.EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fiber discriminant identity failed\n"


def test_non_annihilating_group_order_exits_3(monkeypatch, capsys):
    """The scan's non-torsion check reduces its points by ellcurve._reduce_point."""
    real = ellcurve._reduce_point

    def off_by_one(curve, point, p):
        reduced = real(curve, point, p)
        return reduced and (reduced[0], reduced[1] + 1)

    monkeypatch.setattr(ellcurve, "_reduce_point", off_by_one)
    assert cli.main(["family-scan", "--s-height-max", "2"]) == cli.EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the reduced group order does not annihilate the point\n"


def test_a_reduced_point_off_the_curve_exits_3(monkeypatch, capsys):
    """_reduce_point checks the reduced point against the curve mod p, here
    against a6 + 1 in place of the curve's a6."""
    real = ellcurve._invariants_mod_p

    def shifted(curve, p):
        *head, a6 = real(curve, p)
        return (*head, (a6 + 1) % p)

    monkeypatch.setattr(ellcurve, "_invariants_mod_p", shifted)
    assert cli.main(["family-scan", "--s-height-max", "2"]) == cli.EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reduction left the curve\n"


def test_linear_times_quadratic_prime_in_a_row_exits_3(monkeypatch, capsys):
    """A C3 field splits completely or is inert at every unramified prime."""
    monkeypatch.setattr(cubicfield, "_cubic_root_counts", lambda primes, *c: [1] * len(primes))
    assert cli.main(["family-scan", "--s-height-max", "2"]) == cli.EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "linear times quadratic mod the unramified prime" in lines[0]


def plant_in_fiber_at_s(monkeypatch, at, error=None):
    """Make fiber_at_s raise error at s = at, or, without one, give a fiber
    shifted by 1 there."""
    real = family.fiber_at_s

    def planted(params, s):
        fd = real(params, s)
        if s != Fraction(at):
            return fd
        if error is not None:
            raise error
        q, *rest = fd.coeffs
        return fd._replace(coeffs=(q + 1, *rest))

    monkeypatch.setattr(family, "fiber_at_s", planted)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_check_in_the_fold_exits_3(jobs, monkeypatch, capsys):
    """A repeat of v is checked where its v is evaluated: at --jobs 2, v of
    s = -1/2 in the scanning process and v of s = 1/2 in the forked child."""
    for at, first in (("-2/3", "-1/2"), ("2/3", "1/2")):
        with monkeypatch.context() as patch:
            plant_in_fiber_at_s(patch, at)
            code = cli.main(["family-scan", "--s-height-max", "3", "--jobs", jobs])
        assert code == cli.EXIT_VERIFICATION_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: s={at} and s={first} share v but not the fiber\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("at", ["-1", "0"])  # the first fiber of each of two workers
def test_a_failed_fiber_exits_3_with_the_same_line_at_any_job_count(at, monkeypatch, capsys):
    plant_in_fiber_at_s(monkeypatch, at, VerificationError(f"planted at s={at}"))
    lines = set()
    for jobs in ("1", "2"):
        code = cli.main(["family-scan", "--s-height-max", "3", "--jobs", jobs])
        assert code == cli.EXIT_VERIFICATION_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.add(captured.err)
    assert lines == {f"error: planted at s={at}\n"}
