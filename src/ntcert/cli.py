"""Command-line front end emitting deterministic JSON artifacts.

Subcommands: family-scan, covering-report, degree-plan, modular-verify,
fermat-search.  Flags may also be supplied through a flat JSON config file
(--config); explicit command-line values win.  Exit codes: 0 success,
2 invalid input (InvalidInputError), 3 verification failure
(VerificationError).  Each cmd_* imports the modules it runs, so a
subcommand loads only those; coverings and jsonio likewise import the
polynomial modules inside the functions that use them, so fermat-search
and the CLI's own start-up load no polynomial arithmetic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInputError, NtcertError, VerificationError
from .exact import parse_rational
from .jsonio import SCHEMA_VERSION, dumps_canonical

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VERIFICATION_FAILURE = 3

_SCAN_DEFAULTS = {
    "a1": "1",
    "a4": "1",
    "s_height_max": 10,
    "witness_bound": None,  # cubicfield.DEFAULT_WITNESS_BOUND, read when a scan runs
    "torsion_primes": "2",
    "jobs": 1,
}
# JSON types a --config value may have; other keys take integers.  JSON
# true/false load as bools, which Python counts as ints, and are rejected.
_CONFIG_TYPES = {"a1": (str, int), "a4": (str, int), "torsion_primes": (int, str, list)}


class ScanConfig(NamedTuple):
    """Merged family-scan settings (defaults < config file < CLI flags)."""

    a1: Fraction
    a4: Fraction
    s_height_max: int
    witness_bound: int
    torsion_primes: int | tuple[int, ...]
    output_path: str | None

    def to_json_dict(self) -> dict:
        torsion = self.torsion_primes
        return {
            "a1": self.a1,
            "a4": self.a4,
            "s_height_max": self.s_height_max,
            "witness_bound": self.witness_bound,
            "torsion_primes": list(torsion) if isinstance(torsion, tuple) else torsion,
        }


def _emit(doc: dict, out_path: str | None) -> None:
    _write(dumps_canonical(doc), out_path)


def _write(text: str, out_path: str | None) -> None:
    """Write a fully rendered document at once, so a failure leaves none of it."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise NtcertError("config file must hold a flat JSON object")
    unknown = sorted(set(cfg) - set(_SCAN_DEFAULTS))
    if unknown:
        raise InvalidInputError(f"unknown config key {unknown[0]!r}")
    return cfg


def _merged(args: argparse.Namespace, key: str):
    value = getattr(args, key, None)
    if value is not None:
        return value
    cfg = getattr(args, "_config", {})
    if key not in cfg:
        return _SCAN_DEFAULTS[key]
    value = cfg[key]
    types = _CONFIG_TYPES.get(key, (int,))
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise InvalidInputError(f"config value {key}={value!r} must be {names}")
    return value


def _parse_torsion_primes(raw) -> int | tuple[int, ...]:
    """Plain integer = how many good primes to pick; comma list = explicit primes."""
    if isinstance(raw, int):
        return raw
    if isinstance(raw, list):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in raw):
            raise InvalidInputError(f"torsion_primes list {raw!r} must hold integers")
        return tuple(raw)
    text = str(raw).strip()
    if "," in text:
        return tuple(int(part) for part in text.split(",") if part.strip())
    return int(text)


def cmd_family_scan(args: argparse.Namespace) -> int:
    from .cubicfield import DEFAULT_WITNESS_BOUND
    from .family import derive_family, scan_family
    from .scandoc import dumps_scan

    witness_bound = _merged(args, "witness_bound")
    config = ScanConfig(
        a1=parse_rational(str(_merged(args, "a1"))),
        a4=parse_rational(str(_merged(args, "a4"))),
        s_height_max=_merged(args, "s_height_max"),
        witness_bound=DEFAULT_WITNESS_BOUND if witness_bound is None else witness_bound,
        torsion_primes=_parse_torsion_primes(_merged(args, "torsion_primes")),
        output_path=args.out,
    )
    jobs = _merged(args, "jobs")

    result = scan_family(
        derive_family(config.a1, config.a4),
        s_height_max=config.s_height_max,
        witness_bound=config.witness_bound,
        torsion_primes=config.torsion_primes,
        jobs=jobs,
    )
    # jobs is an execution detail, not part of the scan's identity
    head = {"schema": SCHEMA_VERSION, "config": config.to_json_dict(), "summary": result.summary()}
    _write(dumps_scan(head, result.certificates), config.output_path)
    return EXIT_OK


def cmd_covering_report(args: argparse.Namespace) -> int:
    from . import coverings

    report = coverings.covering_report(args.p)
    doc = {"schema": SCHEMA_VERSION, **report}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_degree_plan(args: argparse.Namespace) -> int:
    from . import newton
    from .exact import BiPoly

    n, d_max = args.n, args.d_max
    achievable = newton.plan_degrees(n, d_max)
    big_n = newton.min_universal_degree(n)

    # demo polynomial with the corner shape: v1^(n-1) v2 + v2^n + v1 + 1
    demo = BiPoly({(n - 1, 1): 1, (0, n): 1, (1, 0): 1, (0, 0): 1})
    corner = newton.corner_check(demo, n)
    b = newton.default_b_sequence(1)[0]
    _, deg_t = newton.substitute_st(demo, 2, 1, b)
    degree_law = deg_t == 2 * (n - 1) + 1

    doc = {
        "schema": SCHEMA_VERSION,
        "n": n,
        "d_max": d_max,
        "N": big_n,
        "achievable": sorted(achievable),
        "checks": {"corner": corner, "degree_law": degree_law},
        "b": b,
    }
    _emit(doc, args.out)
    return EXIT_OK if corner and degree_law else EXIT_VERIFICATION_FAILURE


def cmd_modular_verify(args: argparse.Namespace) -> int:
    from . import qseries

    report = qseries.verify_eta_identity(args.order)
    doc = {"schema": SCHEMA_VERSION, **report}
    _emit(doc, args.out)
    passed = (
        report["printed_coefficients_match"]
        and report["j_identity_match"]
        and report["closed_form_match"]
    )
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def cmd_fermat_search(args: argparse.Namespace) -> int:
    from . import coverings

    # the listing is refused above its cap before the search runs
    trivial = coverings.trivial_solutions(args.bound) if args.full else []
    nontrivial = coverings.fermat_search(args.p, args.bound)
    trivial_count = 6 * args.bound + 1
    doc = {
        "schema": SCHEMA_VERSION,
        "p": args.p,
        "bound": args.bound,
        "solutions_found": trivial_count + len(nontrivial),
        "trivial_count": trivial_count,
        "nontrivial": [list(s) for s in nontrivial],
    }
    if args.full:
        doc["solutions"] = [list(s) for s in sorted(trivial + nontrivial)]
    _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntcert",
        description="Exact certificates: cubic-field fibers, coverings, degree plans, q-series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("family-scan", help="scan fibers and emit extension certificates")
    scan.add_argument("--a1", help="family coefficient a1 (rational, nonzero)")
    scan.add_argument("--a4", help="family coefficient a4 (rational, nonzero)")
    scan.add_argument("--s-height-max", type=int, dest="s_height_max", help="max height of s")
    scan.add_argument("--witness-bound", type=int, dest="witness_bound", help="prime bound for distinctness witnesses")
    scan.add_argument(
        "--torsion-primes",
        dest="torsion_primes",
        help="integer = number of good primes to select; comma list = explicit primes",
    )
    scan.add_argument("--jobs", type=int, help="worker processes for fiber evaluation")
    scan.add_argument("--config", help="flat JSON config file; CLI flags override it")
    scan.add_argument("--out", help="output path (stdout if omitted)")
    scan.set_defaults(func=cmd_family_scan)

    cov = sub.add_parser("covering-report", help="congruence solutions, models, genus data")
    cov.add_argument("p", type=int)
    cov.add_argument("--out", help="output path (stdout if omitted)")
    cov.set_defaults(func=cmd_covering_report)

    plan = sub.add_parser("degree-plan", help="reachable degrees for the substitution planner")
    plan.add_argument("n", type=int)
    plan.add_argument("d_max", type=int)
    plan.add_argument("--out", help="output path (stdout if omitted)")
    plan.set_defaults(func=cmd_degree_plan)

    mod = sub.add_parser("modular-verify", help="verify the eta-quotient / j identity")
    mod.add_argument("--order", type=int, default=24)
    mod.add_argument("--out", help="output path (stdout if omitted)")
    mod.set_defaults(func=cmd_modular_verify)

    fer = sub.add_parser(
        "fermat-search",
        help="exact search of A^p = B^p + C^p over the Barlow-Abel candidates (Ribenboim 1999)",
    )
    fer.add_argument("p", type=int, choices=(3, 5, 7))
    fer.add_argument("--bound", type=int, default=100)
    fer.add_argument("--full", action="store_true", help="list every solution, not just counts (bound <= 2*10^8)")
    fer.add_argument("--out", help="output path (stdout if omitted)")
    fer.set_defaults(func=cmd_fermat_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None))
    except (OSError, ValueError, NtcertError) as exc:  # ValueError: JSON or UTF-8 decoding
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except (NtcertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
