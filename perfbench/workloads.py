"""Workload definitions and output checks for the ntcert benchmark.

A workload is a fixed sequence of ``ntcert`` command lines.  The seed picks
the scan families and the covering prime from fixed lists; seed 0 (the
default) gives the first entry of each list, and only for those inputs the
exact output bytes are known in advance (sha256 of the outputs at the
commit that introduced the benchmark).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Nondegenerate (a1, a4) pairs with the same fiber structure (87 fibers and
# 66 accepted at height 8), so every seed does the same amount of work on
# different numbers.
SCAN_FAMILIES = ((1, 1), (1, 2), (1, 3), (1, -1), (-1, 1), (1, 5), (1, -3), (-1, 2))
POOL_FAMILIES = ((2, 3), (2, 1), (2, -1), (2, 5), (-2, 3), (2, -3), (-2, 1), (2, 7))
# Primes p = m^2 - m + 1 with m near 100, so covering-report runs the
# triangle-curve checks at a similar size for every seed.
COVERING_PRIMES = (9901, 10303, 8011, 8191, 11131)

# Small enough that one pass of a workload takes a few seconds, so a run
# times each command many times and its medians are steady.
SCAN_HEIGHT = 8
MODULAR_ORDER = 150
FERMAT_7_BOUND = 5000

# sha256 of each command's stdout for seed 0.
EXPECTED_SHA256 = {
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
    ("degree-plan", "30", "5000"):
        "bba3fbcd231f81a2281f165b547e29b2e64d22c9593cb5f66dd82d34cf6e6b92",
}

WORKLOADS = ("scan", "modular_desk")


@dataclass(frozen=True)
class Command:
    """One ``ntcert`` invocation and the sha256 its stdout must have, if known."""

    argv: tuple[str, ...]
    expected_sha256: str | None = None


def _scan(a1: int, a4: int, *extra: str) -> tuple[str, ...]:
    return ("family-scan", "--a1", str(a1), "--a4", str(a4),
            "--s-height-max", str(SCAN_HEIGHT), *extra)


def commands(workload: str, seed: int) -> tuple[Command, ...]:
    """The command lines of ``workload`` for ``seed``."""
    if workload == "scan":
        argvs = [
            _scan(*SCAN_FAMILIES[seed % len(SCAN_FAMILIES)]),
            _scan(*POOL_FAMILIES[seed % len(POOL_FAMILIES)], "--jobs", "2"),
        ]
    elif workload == "modular_desk":
        prime = COVERING_PRIMES[seed % len(COVERING_PRIMES)]
        argvs = [
            ("modular-verify", "--order", str(MODULAR_ORDER)),
            ("fermat-search", "3", "--bound", "10000"),
            ("fermat-search", "7", "--bound", str(FERMAT_7_BOUND)),
            ("covering-report", str(prime)),
            ("degree-plan", "30", "5000"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return tuple(Command(argv, EXPECTED_SHA256.get(argv)) for argv in argvs)


def check_output(argv: tuple[str, ...], stdout: bytes) -> list[str]:
    """Problems with one command's output, judged by the subcommand's own pass fields."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return _check_fields(argv[0], doc)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"unexpected output layout: {exc!r}"]


def _check_fields(sub: str, doc: dict) -> list[str]:
    problems = []
    if sub == "family-scan":
        s = doc["summary"]
        skipped = s["skipped_reducible"] + s["skipped_presumed_equal"] + s["skipped_torsion"]
        if skipped + s["accepted"] != s["fibers_tested"]:
            problems.append("skip counts plus accepted differ from fibers_tested")
        if len(doc["certificates"]) != s["accepted"]:
            problems.append("certificate count differs from accepted")
    elif sub == "modular-verify":
        for key in ("printed_coefficients_match", "j_identity_match", "closed_form_match"):
            if doc[key] is not True:
                problems.append(f"{key} is not true")
    elif sub == "degree-plan":
        for key, ok in doc["checks"].items():
            if ok is not True:
                problems.append(f"degree-plan check {key} is not true")
    elif sub == "fermat-search":
        if doc["nontrivial"]:
            problems.append(f"nontrivial solutions reported: {doc['nontrivial']}")
    elif sub == "covering-report":
        tri = doc["triangle"]
        if tri is None:
            problems.append("no triangle curve for the covering prime")
        else:
            problems += [f"triangle identity {k} is not true"
                         for k, ok in tri["identities"].items() if ok is not True]
    return problems


def work_units(argv: tuple[str, ...], stdout: bytes) -> int:
    """Units of work one command completed: fibers for a scan, else one command."""
    if argv[0] == "family-scan":
        return json.loads(stdout)["summary"]["fibers_tested"]
    return 1
