import hashlib
import json
import subprocess
import sys

import pytest

from ntcert import cli, newton, qseries


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_covering_report(capsys):
    code, doc = run_cli(["covering-report", "7"], capsys)
    assert code == 0
    assert doc["schema"] == "v1"
    assert doc["n_solutions"] == [2, 4]
    assert doc["quotient_genus"] == 1
    assert doc["triangle"]["fixed_points_on_curve"] is True


def test_covering_report_bad_prime(capsys):
    code, _ = run_cli(["covering-report", "5"], capsys)
    assert code == 2


def test_degree_plan(capsys):
    code, doc = run_cli(["degree-plan", "3", "20"], capsys)
    assert code == 0
    assert doc["N"] == 7
    assert doc["achievable"][:3] == [5, 7, 8]
    assert doc["checks"] == {"corner": True, "degree_law": True}


def test_degree_plan_gap_exits_3_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(newton, "min_universal_degree", lambda n: 2)
    code = cli.main(["degree-plan", "3", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_modular_verify(capsys):
    code, doc = run_cli(["modular-verify", "--order", "12"], capsys)
    assert code == 0
    assert doc["printed_coefficients_match"] is True
    assert doc["j_identity_match"] is True
    assert doc["closed_form_match"] is True


def test_modular_verify_failure_exit_code(capsys, monkeypatch):
    def broken(order):
        return {
            "order": order,
            "printed_coefficients_match": True,
            "j_identity_match": False,
            "closed_form_match": True,
            "first_mismatch": {"exponent": 5, "lhs": "1", "rhs": "2"},
        }

    monkeypatch.setattr(qseries, "verify_eta_identity", broken)
    code, doc = run_cli(["modular-verify"], capsys)
    assert code == 3
    assert doc["first_mismatch"]["exponent"] == 5


def test_fermat_search(capsys):
    code, doc = run_cli(["fermat-search", "3", "--bound", "20"], capsys)
    assert code == 0
    assert doc["nontrivial"] == []
    assert doc["solutions_found"] == 121
    assert "solutions" not in doc
    code, doc = run_cli(["fermat-search", "3", "--bound", "2", "--full"], capsys)
    assert code == 0
    assert ["1", 1, 0] not in doc["solutions"]
    assert [1, 1, 0] in doc["solutions"]


def test_family_scan_degenerate_exit(capsys):
    code, _ = run_cli(["family-scan", "--a1", "1", "--a4", "0"], capsys)
    assert code == 2


def test_family_scan_invalid_height(capsys):
    code, _ = run_cli(["family-scan", "--s-height-max", "0"], capsys)
    assert code == 2


def test_family_scan_document(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = cli.main(
        ["family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "v1"
    assert doc["summary"]["fibers_tested"] == 15
    assert doc["summary"]["accepted"] == len(doc["certificates"])
    cert = doc["certificates"][0]
    for key in (
        "s",
        "t",
        "fiber",
        "disc",
        "sqrt_disc",
        "galois_class",
        "point",
        "torsion_primes",
        "torsion_bound",
        "nontorsion_checked_to",
        "disjointness",
    ):
        assert key in cert
    assert cert["galois_class"] == "C3"


def test_family_scan_byte_determinism(tmp_path, capsys):
    args = ["family-scan", "--s-height-max", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == a.read_bytes()


def test_family_scan_jobs_identical_bytes(tmp_path):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    assert cli.main(["family-scan", "--s-height-max", "3", "--out", str(a)]) == 0
    assert (
        cli.main(["family-scan", "--s-height-max", "3", "--jobs", "2", "--out", str(b)])
        == 0
    )
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a1": "2", "a4": "3", "s_height_max": 2}))
    code, doc = run_cli(["family-scan", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["config"]["a1"] == "2"
    assert doc["config"]["s_height_max"] == 2
    code, doc = run_cli(
        ["family-scan", "--config", str(cfg), "--a1", "1", "--s-height-max", "3"], capsys
    )
    assert code == 0
    assert doc["config"]["a1"] == "1"  # CLI wins
    assert doc["config"]["a4"] == "3"  # config fills the gap
    assert doc["config"]["s_height_max"] == 3


def test_explicit_torsion_primes(capsys):
    # 5 and 17 are good for the curve and unramified in every height-2 fiber
    code, doc = run_cli(
        ["family-scan", "--s-height-max", "2", "--torsion-primes", "5,17"], capsys
    )
    assert code == 0
    assert doc["config"]["torsion_primes"] == [5, 17]
    assert all(c["torsion_primes"] == [5, 17] for c in doc["certificates"])
    # 7 ramifies in the s=1 fiber, so forcing it must fail cleanly
    code, _ = run_cli(
        ["family-scan", "--s-height-max", "2", "--torsion-primes", "5,7"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("count", [0, 1, -2])
def test_torsion_prime_count_below_two_exits_2(tmp_path, capsys, count):
    code, doc = run_cli(
        ["family-scan", "--s-height-max", "2", "--torsion-primes", str(count)], capsys
    )
    assert (code, doc) == (2, None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_height_max": 2, "torsion_primes": count}))
    code, doc = run_cli(["family-scan", "--config", str(cfg)], capsys)
    assert (code, doc) == (2, None)


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ntcert.cli", "degree-plan", "3", "10"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["N"] == 7


def test_invalid_rational_flag_exits_2(capsys):
    code, _ = run_cli(["family-scan", "--a1", "abc"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--a1", "1/0"], None),
        ([], {"a4": "3/0"}),
        ([], {"a1": True}),
        ([], {"jobs": None}),
        ([], {"s_height_max": [3]}),
        ([], {"s_height_max": 2.9}),
        ([], {"s_height_max": True}),
        ([], {"witness_bound": {"a": 1}}),
        ([], {"torsion_primes": [5, None]}),
        ([], {"torsion_primes": [5, True]}),
        ([], {"s_height_max": 1, "witnes_bound": 5}),
        (["--s-height-max", "1", "--jobs", "0"], None),
        (["--s-height-max", "1", "--jobs", "-1"], None),
        ([], {"s_height_max": 1, "jobs": 0}),
    ],
)
def test_malformed_scan_input_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code = cli.main(["family-scan"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["covering-report", "5"], "no order-3 symmetry for p = 5"),
        (["family-scan", "--a1", "0"], "a1 and a4 must be nonzero"),
        (["family-scan", "--torsion-primes", "2,3", "--s-height-max", "2"],
         "2 is not a good-reduction prime"),
        (["family-scan", "--torsion-primes", "5,7", "--s-height-max", "2"],
         "7 ramifies in the fiber cubic"),
        (["family-scan", "--torsion-primes", "5,5"], "at least two distinct primes are required"),
    ],
)
def test_failed_preconditions_exit_2_with_their_line(capsys, argv, line):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv", [["family-scan", "--s-height-max", "1"], ["degree-plan", "3", "10"]], ids=["scan", "desk"]
)
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.json"
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.parent.exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("[1, 2, 3]")
    code, _ = run_cli(["family-scan", "--config", str(cfg)], capsys)
    assert code == 2
    code, _ = run_cli(["family-scan", "--config", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    cfg.write_bytes(b"\xff\xfe{}")  # not UTF-8
    code, _ = run_cli(["family-scan", "--config", str(cfg)], capsys)
    assert code == 2


def test_certificate_fiber_round_trips(tmp_path):
    from fractions import Fraction

    from ntcert.jsonio import poly_from_list
    from ntcert.exact import parse_rational
    from ntcert.cubicfield import galois_class

    out = tmp_path / "scan.json"
    assert cli.main(["family-scan", "--s-height-max", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for cert in doc["certificates"]:
        fiber = poly_from_list(cert["fiber"])
        disc = parse_rational(cert["disc"])
        sqrt_disc = parse_rational(cert["sqrt_disc"])
        assert fiber.discriminant() == disc == sqrt_disc**2
        K = galois_class(fiber)
        assert K.galois_class.value == cert["galois_class"]
        # the certified point satisfies the reconstructed fiber: y = t is the
        # curve section, x is the generator, so fiber(theta) = 0 by definition
        assert parse_rational(cert["t"]) == parse_rational(cert["point"]["y"][0])


# sha256 of the stdout of every seed-0 benchmark command (the values in
# perfbench/workloads.py), so that a change that alters any output byte
# fails here, not only in the benchmark.
PINNED_SCANS = {
    ("family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "8"):
        "1b4fa48b342bc9d26e0ba00b0c795aa625c27825d0609962389f80d9e8446ed1",
    ("family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "8", "--jobs", "2"):
        "92824165cd20b587ead3754001690b8b1c0ece944d13865030b3b78916a49e00",
    ("modular-verify", "--order", "150"):
        "96b633812b0e469e3712b3c7f73cb100990bac1d16f88195ffe7480fb26a64ac",
    ("fermat-search", "3", "--bound", "10000"):
        "571ec54ca58e34e53303415a440aa10c47426aaaa070014f6c72c2ae34682447",
    ("fermat-search", "7", "--bound", "5000"):
        "5452b0ce8a0d451438d2616b064d35d221c3b83364d9cb964cc1807e707a2aac",
    ("covering-report", "9901"):
        "94872377b9a66db8458de89a5b4e07ccbaf5cf756aae3d7c2aa2e599b63aabfb",
    # m = 2, the only triangle curve whose fixed points lie off it, and m = 3
    ("covering-report", "3"):
        "7b84482236076c7ddc92b360dd3b227e8afdb676a386b7394888ef79adfb19be",
    ("covering-report", "7"):
        "ce0ce13a098864891c38ef84da25803b213458493d8b0a84b030d96ae06f149f",
    ("degree-plan", "30", "5000"):
        "bba3fbcd231f81a2281f165b547e29b2e64d22c9593cb5f66dd82d34cf6e6b92",
    # two reducible and four presumed-equal fibers, through the pool
    ("family-scan", "--a1", "3/2", "--a4", "1", "--s-height-max", "3", "--jobs", "2"):
        "63b9cffadc048696fdfdf4a39550f3d16f7569b112bd2bc968ec7d033cd30c77",
    # explicit torsion primes
    ("family-scan", "--s-height-max", "4", "--torsion-primes", "5,17"):
        "ce79c9c84b42a050832db8f54e0b4217787253c5a85e37aaf0444f26aca670a7",
}


@pytest.mark.parametrize(
    "argv",
    list(PINNED_SCANS),
    ids=[
        "serial",
        "jobs2",
        "modular150",
        "fermat3",
        "fermat7",
        "covering9901",
        "covering3",
        "covering7",
        "plan30",
        "reducible_jobs2",
        "primes5_17",
    ],
)
def test_scan_output_bytes_are_pinned(argv, capsys):
    assert cli.main(list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == PINNED_SCANS[argv]


def test_optimized_interpreter_keeps_the_serial_pin():
    """python -O strips asserts; the scan writer's layout checks must not be any."""
    argv = ("family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "8")
    run = subprocess.run(
        [sys.executable, "-O", "-m", "ntcert.cli", *argv],
        capture_output=True, timeout=120, check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == PINNED_SCANS[argv]


def test_forked_height20_scan_bytes_are_pinned(capsys):
    """The fork path at a size with 71,631 witness pairs; --jobs 1 writes the same bytes."""
    argv = ["family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "20", "--jobs", "2"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "9d1467e39f9179521fdb440fa08c6e04cade73e113626f027d3d7f4800038ffd"


def test_height30_scan_bytes_are_pinned(capsys):
    """(2, 3) at height 30: 806 certificates.  At s = -9/8 and 7/17 the point
    reduces to an order at most the torsion bound, 6, at most primes below
    29, so a walk over the small primes needs the exact Q[theta] check
    there; the bytes are the same whichever primes settle the claim."""
    argv = ["family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "30"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "18ae17854b1ae9c0a2f411a791f01d55bdb347402898c4abd395c9b1e0227579"
