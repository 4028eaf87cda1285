"""Command-line front end emitting deterministic JSON artifacts.

Subcommands: family-scan, covering-report, degree-plan, modular-verify,
fermat-search, read from argv by the _COMMANDS table.  A flat JSON config
file (--config) may supply flags; explicit ones win.  Exit codes: 0 success
(-h included), 2 invalid input (InvalidInputError, argv errors included),
3 verification failure (VerificationError).  Each cmd_* imports the
modules it runs, so a subcommand loads only those; coverings and jsonio
likewise import the polynomial modules and Fraction inside the functions
that use them, so start-up loads neither, fermat-search no polynomials,
and modular-verify and fermat-search no fractions or decimal.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, NtcertError, VerificationError
from .jsonio import SCHEMA_VERSION, dumps_canonical

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VERIFICATION_FAILURE = 3

# Options: dest -> (type, default, help, JSON types of a --config value); the
# flag is --dest with dashes, a bool is a switch, and _parse leaves an option
# with JSON types None, so that _merged can take it from --config first.
_OUT = {"out": (str, None, "output path (stdout if omitted)", ())}
_SCAN_OPTIONS = {
    "a1": (str, "1", "family coefficient a1 (rational, nonzero)", (str, int)),
    "a4": (str, "1", "family coefficient a4 (rational, nonzero)", (str, int)),
    "s_height_max": (int, 10, "max height of s", (int,)),
    # None: cubicfield.DEFAULT_WITNESS_BOUND, read when a scan runs
    "witness_bound": (int, None, "prime bound for distinctness witnesses, <= 10^7", (int,)),
    "torsion_primes": (str, "2", "count, or comma list, of 2-12 good primes (<= 10^5)", (int, str, list)),
    "jobs": (int, 1, "worker processes for fiber evaluation", (int,)),
    "config": (str, None, "flat JSON config file; CLI flags override it", ()),
    **_OUT,
}
# Subcommand -> (help, positionals as (name, type, allowed values), options).
# Its handler cmd_<name> is looked up as it runs, so a wrapper put on the module runs.
_COMMANDS = {
    "family-scan": ("scan fibers and emit extension certificates", (), _SCAN_OPTIONS),
    "covering-report": ("congruence solutions, models, genus data", (("p", int, ()),), _OUT),
    "degree-plan": ("reachable degrees for the substitution planner",
                    (("n", int, ()), ("d_max", int, ())), _OUT),
    "modular-verify": ("verify the eta-quotient / j identity", (),
                       {"order": (int, 24, "truncation order of the series", ()), **_OUT}),
    "fermat-search": (
        "exact search of A^p = B^p + C^p over the Barlow-Abel candidates (Ribenboim 1999)",
        (("p", int, (3, 5, 7)),),
        {"bound": (int, 100, "search bound", ()),
         "full": (bool, False, "list every solution, not just counts (bound <= 2*10^8)", ()),
         **_OUT}),
}


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
    unknown = sorted(key for key in cfg if key not in _SCAN_OPTIONS or not _SCAN_OPTIONS[key][3])
    if unknown:
        raise InvalidInputError(f"unknown config key {unknown[0]!r}")
    return cfg


def _merged(args: SimpleNamespace, cfg: dict, key: str):
    value = getattr(args, key)
    if value is not None:
        return value
    _, default, _, types = _SCAN_OPTIONS[key]
    if key not in cfg:
        return default
    value = cfg[key]
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


def cmd_family_scan(args: SimpleNamespace) -> int:
    from .cubicfield import DEFAULT_WITNESS_BOUND
    from .exact.rationals import parse_rational
    from .family import derive_family, scan_family
    from .scandoc import dumps_scan

    cfg = _load_config(args.config)
    witness_bound = _merged(args, cfg, "witness_bound")
    config = ScanConfig(
        a1=parse_rational(str(_merged(args, cfg, "a1"))),
        a4=parse_rational(str(_merged(args, cfg, "a4"))),
        s_height_max=_merged(args, cfg, "s_height_max"),
        witness_bound=DEFAULT_WITNESS_BOUND if witness_bound is None else witness_bound,
        torsion_primes=_parse_torsion_primes(_merged(args, cfg, "torsion_primes")),
        output_path=args.out,
    )
    jobs = _merged(args, cfg, "jobs")

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


def cmd_covering_report(args: SimpleNamespace) -> int:
    from . import coverings

    report = coverings.covering_report(args.p)
    doc = {"schema": SCHEMA_VERSION, **report}
    _write(dumps_canonical(doc), args.out)
    return EXIT_OK


def cmd_degree_plan(args: SimpleNamespace) -> int:
    from . import newton
    from .exact.bipoly import BiPoly

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
    _write(dumps_canonical(doc), args.out)
    return EXIT_OK if corner and degree_law else EXIT_VERIFICATION_FAILURE


def cmd_modular_verify(args: SimpleNamespace) -> int:
    from . import qseries

    report = qseries.verify_eta_identity(args.order)
    doc = {"schema": SCHEMA_VERSION, **report}
    _write(dumps_canonical(doc), args.out)
    passed = (
        report["printed_coefficients_match"]
        and report["j_identity_match"]
        and report["closed_form_match"]
    )
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def cmd_fermat_search(args: SimpleNamespace) -> int:
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
    _write(dumps_canonical(doc), args.out)
    return EXIT_OK


def _typed(kind, name: str, token: str):
    try:
        return kind(token)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, not {token!r}") from None


def _parse(argv: list[str]) -> tuple:
    """The handler and argument namespace that argv selects by _COMMANDS,
    or None and the usage text when argv asks for -h or --help."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, _usage(None)
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise InvalidInputError(f"{given}; choose one of {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    _, positionals, options = _COMMANDS[command]
    values = {dest: None if spec[3] else spec[1] for dest, spec in options.items()}
    flags = {"--" + dest.replace("_", "-"): dest for dest in options}
    given = []
    for token in tokens:
        if not token.startswith("-") or token[1:].isdecimal():  # -5 is a value
            given.append(token)
            continue
        if token in ("-h", "--help"):
            return None, _usage(command)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise InvalidInputError(f"{command} has no option {flag}")
        kind = options[flags[flag]][0]
        if kind is bool and eq:
            raise InvalidInputError(f"{flag} takes no value")
        if kind is not bool and not eq and (value := next(tokens, None)) is None:
            raise InvalidInputError(f"{flag} needs a value")
        values[flags[flag]] = kind is bool or _typed(kind, flag, value)
    if len(given) != len(positionals):
        names = " ".join(name for name, _, _ in positionals) or "no positionals"
        raise InvalidInputError(f"{command} takes {names}, got {' '.join(given) or 'none'}")
    for (name, kind, allowed), token in zip(positionals, given):
        values[name] = _typed(kind, name, token)
        if allowed and values[name] not in allowed:
            raise InvalidInputError(f"{name} must be one of {allowed}, not {token}")
    return globals()["cmd_" + command.replace("-", "_")], SimpleNamespace(**values)


def _usage(command: str | None) -> str:
    if command is None:
        head = "usage: ntcert <command> [options]  (ntcert <command> -h lists its options)\n"
        rows = [(name, row[0]) for name, row in _COMMANDS.items()]
    else:
        text, positionals, options = _COMMANDS[command]
        names = "".join(name + " " for name, _, _ in positionals)
        head = f"usage: ntcert {command} {names}[options]\n\n{text}\n"
        rows = [(name, f"{kind.__name__} in {allowed}" if allowed else kind.__name__)
                for name, kind, allowed in positionals]
        rows += [("--" + dest.replace("_", "-") + ("" if kind is bool else " " + kind.__name__),
                  help_ + ("" if default in (None, False) else f" (default {default})"))
                 for dest, (kind, default, help_, _) in options.items()]
    return head + "".join(f"\n  {left:<22}{right}" for left, right in rows) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        if handler is None:
            sys.stdout.write(args)
            return EXIT_OK
        return handler(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except (NtcertError, ValueError, OSError) as exc:  # ValueError: JSON or UTF-8 decoding too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
