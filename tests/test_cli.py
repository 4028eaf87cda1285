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


@pytest.mark.parametrize("order", [5, 100001])
def test_modular_verify_order_outside_6_to_10_5_exits_2(capsys, monkeypatch, order):
    """The order is refused before any series is built."""

    def refuse(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(qseries, "eisenstein_e4", refuse)
    monkeypatch.setattr(qseries, "euler_pow", refuse)
    code = cli.main(["modular-verify", "--order", str(order)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: order must be between 6 and 100000\n")


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


# primes that every fiber to height 2 at (1, 1) takes as torsion primes
THIRTEEN_PRIMES = ",".join(map(str, (5, 17, 29, 41, 43, 47, 53, 59, 61, 67, 71, 79, 83)))


# a count below two, and the counts, lists and primes that would stall the
# scan, as each prime costs a point count of O(p) per fiber: all are refused
# before the first fiber
@pytest.mark.parametrize("count", [0, 1, -2, 13, 100000, THIRTEEN_PRIMES, "5,100003"])
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
        (["family-scan", "--torsion-primes", "13"], "at most 12 torsion primes are allowed"),
        (["family-scan", "--torsion-primes", THIRTEEN_PRIMES, "--s-height-max", "2"],
         "at most 12 torsion primes are allowed"),
        (["family-scan", "--torsion-primes", "5,1000000007"],
         "torsion prime 1000000007 is above 100000"),
        (["family-scan", "--witness-bound", "1"], "witness bound must be between 2 and 10000000"),
        (["family-scan", "--witness-bound", "10000000000"],
         "witness bound must be between 2 and 10000000"),
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
    # the cleared sides of the j identity span 1,000 coefficients
    ("modular-verify", "--order", "1000"):
        "53e7654bb8fae43b42f7c74f8ad75a3d4df25f577b47a8b9847b69264f31c529",
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
        "modular1000",
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
    29, so a check over the small primes could reach the exact Q[theta]
    product there; the bytes are the same whichever primes settle the claim."""
    argv = ["family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "30"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "18ae17854b1ae9c0a2f411a791f01d55bdb347402898c4abd395c9b1e0227579"


def test_height30_default_family_scan_bytes_are_pinned(capsys):
    """(1, 1) at height 30, past the height-20 pin: every certificate's
    non-torsion verdict is bound*Pbar != O at a split prime."""
    argv = ["family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "30"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "1563bc3f481a51745ac8bab9a588c44bdbc312a81d3abba5201af2093ea0842c"


# -- the argv parser -----------------------------------------------------------

_SCAN_UNSET = {"a1": None, "a4": None, "s_height_max": None, "witness_bound": None,
               "torsion_primes": None, "jobs": None, "config": None, "out": None}
# argv -> (handler, attribute values), as argparse parsed them before the
# table-driven parser replaced it: the seven seed-0 benchmark commands, the
# README examples, and options mixed with positionals, given as --opt=value,
# repeated (the last wins) and with negative values
PARSED = {
    ("family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "8"):
        ("cmd_family_scan", {**_SCAN_UNSET, "a1": "1", "a4": "1", "s_height_max": 8}),
    ("family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "8", "--jobs", "2"):
        ("cmd_family_scan", {**_SCAN_UNSET, "a1": "2", "a4": "3", "s_height_max": 8, "jobs": 2}),
    ("modular-verify", "--order", "150"): ("cmd_modular_verify", {"order": 150, "out": None}),
    ("fermat-search", "3", "--bound", "10000"):
        ("cmd_fermat_search", {"p": 3, "bound": 10000, "full": False, "out": None}),
    ("fermat-search", "7", "--bound", "5000"):
        ("cmd_fermat_search", {"p": 7, "bound": 5000, "full": False, "out": None}),
    ("covering-report", "9901"): ("cmd_covering_report", {"p": 9901, "out": None}),
    ("degree-plan", "30", "5000"): ("cmd_degree_plan", {"n": 30, "d_max": 5000, "out": None}),
    ("family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "20", "--out", "certs.json"):
        ("cmd_family_scan",
         {**_SCAN_UNSET, "a1": "1", "a4": "1", "s_height_max": 20, "out": "certs.json"}),
    ("covering-report", "7"): ("cmd_covering_report", {"p": 7, "out": None}),
    ("degree-plan", "3", "20"): ("cmd_degree_plan", {"n": 3, "d_max": 20, "out": None}),
    ("modular-verify", "--order", "24"): ("cmd_modular_verify", {"order": 24, "out": None}),
    ("modular-verify",): ("cmd_modular_verify", {"order": 24, "out": None}),
    ("family-scan", "--a1", "-1", "--a4", "2", "--torsion-primes", "5,17", "--witness-bound",
     "500", "--config", "c.json"):
        ("cmd_family_scan", {**_SCAN_UNSET, "a1": "-1", "a4": "2", "witness_bound": 500,
                             "torsion_primes": "5,17", "config": "c.json"}),
    ("fermat-search", "--full", "5", "--bound=7", "--out=x.json"):
        ("cmd_fermat_search", {"p": 5, "bound": 7, "full": True, "out": "x.json"}),
    ("family-scan", "--jobs", "2", "--jobs", "3"): ("cmd_family_scan", {**_SCAN_UNSET, "jobs": 3}),
    ("covering-report", "-5"): ("cmd_covering_report", {"p": -5, "out": None}),
}


@pytest.mark.parametrize("argv", list(PARSED), ids=[" ".join(a) for a in PARSED])
def test_argv_parses_to_the_handler_and_values_argparse_gave(argv):
    handler, args = cli._parse(list(argv))
    assert (handler.__name__, vars(args)) == PARSED[argv]
    assert handler is getattr(cli, handler.__name__)


def test_an_option_with_equals_is_the_option_and_its_value():
    for argv in PARSED:
        joined, i = [], 0
        while i < len(argv):
            token = argv[i]
            if token.startswith("--") and "=" not in token and token != "--full":
                token, i = f"{token}={argv[i + 1]}", i + 1
            joined.append(token)
            i += 1
        handler, args = cli._parse(joined)
        assert (handler.__name__, vars(args)) == PARSED[argv], joined


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["--order", "5"],
        ["family-scan", "--bogus", "1"],
        ["family-scan", "--s-height", "3"],  # no abbreviations
        ["family-scan", "--s_height_max", "3"],
        ["family-scan", "-x"],
        ["modular-verify", "--order"],
        ["family-scan", "--a1"],
        ["fermat-search", "3", "--full=1"],
        ["modular-verify", "--order", "x"],
        ["family-scan", "--jobs", "1.5"],
        ["degree-plan", "3", "x"],
        ["covering-report"],
        ["degree-plan", "3"],
        ["covering-report", "7", "8"],
        ["modular-verify", "5"],
        ["fermat-search", "3", "--full", "1"],
        ["fermat-search", "11", "--full", "--bound", "3"],
        ["fermat-search", "2"],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_argv_errors_exit_2_with_one_error_line(capsys, monkeypatch, argv):
    from ntcert import coverings

    def refused(*_):
        raise AssertionError("an argv error ran the command")

    monkeypatch.setattr(coverings, "trivial_solutions", refused)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("argv", [[], ["frobnicate"]], ids=["none", "unknown"])
def test_a_missing_or_unknown_subcommand_lists_the_five(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    for name in ("family-scan", "covering-report", "degree-plan", "modular-verify",
                 "fermat-search"):
        assert name in err


def test_help_lists_the_subcommands_and_their_options(capsys):
    for flag in ("-h", "--help"):
        assert cli.main([flag]) == 0
        out = capsys.readouterr().out
        for name in ("family-scan", "covering-report", "degree-plan", "modular-verify",
                     "fermat-search"):
            assert name in out
    assert cli.main(["fermat-search", "-h"]) == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in ("--bound", "--full", "--out"))
    run = subprocess.run([sys.executable, "-m", "ntcert.cli", "-h"],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert "fermat-search" in run.stdout
