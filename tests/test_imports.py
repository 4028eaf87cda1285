"""Lazy package re-exports, and which modules each subcommand loads."""

import ast
import importlib
import json
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import ntcert
import ntcert.exact

NTCERT_NAMES = {"cubicfield": ["galois_class"]}
EXACT_NAMES = {
    "bipoly": ["BiPoly"],
    "modpoly": ["count_distinct_roots"],
    "primes": ["divisors", "is_prime", "iter_primes", "primes_up_to"],
    "quotient": ["QuotientElem", "irreducible_over_q"],
    "rationals": ["format_rational", "parse_rational", "rational_is_square"],
    "unipoly": ["UniPoly"],
}


@pytest.mark.parametrize("pkg, table", [(ntcert, NTCERT_NAMES), (ntcert.exact, EXACT_NAMES)],
                         ids=["ntcert", "ntcert.exact"])
def test_every_reexport_is_the_submodule_object(pkg, table):
    assert pkg.__all__ == sorted(n for names in table.values() for n in names)
    for module, names in table.items():
        sub = importlib.import_module(f"{pkg.__name__}.{module}")
        for name in names:
            assert getattr(pkg, name) is getattr(sub, name), name


@pytest.mark.parametrize("pkg", ["ntcert", "ntcert.exact"])
def test_star_import_binds_every_name_and_unknown_names_raise(pkg):
    namespace = {}
    exec(f"from {pkg} import *", namespace)
    module = importlib.import_module(pkg)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError):
        module.no_such_name


PROBE = """
import contextlib, io, json, sys
import ntcert.cli
argv, others = json.loads(sys.argv[1]), set(json.loads(sys.argv[2]))
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert ntcert.cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ntcert.") or m in others)))
"""
# the modules a process pool loads: no scan loads them, as --jobs above 1 forks
POOL = {"concurrent.futures.process", "multiprocessing"}
# dataclasses loads inspect, which loads ast, dis and tokenize: no subcommand needs them
STARTUP = {"dataclasses", "inspect"}
# the modules outside ntcert that the probe reports
REPORTED = sorted(POOL | STARTUP | {"pickle", "numpy"})
# the polynomial arithmetic, which neither the CLI's start-up nor the Fermat search runs
POLYNOMIALS = {"exact.unipoly", "exact.bipoly", "exact.quotient"}


def loaded_modules(argv):
    """The ntcert submodules (without the prefix) and REPORTED modules that argv loads."""
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), json.dumps(REPORTED)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {m.removeprefix("ntcert.") for m in json.loads(run.stdout)}


# argv, the module it runs, and the modules it must not load; only a scan
# loads the scan document's writer and the residue fields, none loads numpy
# or dataclasses, the series check multiplies int lists and no polynomials,
# the degree planner needs neither quotient rings nor dense polynomials, and
# no subcommand loads exact.modpoly, the tests' root-count oracle
SUBCOMMANDS = {
    "import-only": ([], "cli",
                    {"family", "cubicfield", "coverings", "newton", "qseries", "scandoc", "numpy",
                     "exact.modpoly", *POLYNOMIALS, *STARTUP}),
    "modular-verify": (["modular-verify", "--order", "12"], "qseries",
                       {"family", "cubicfield", "coverings", "exact.ellcurve", "exact.finitefield",
                        "exact.modpoly", "scandoc", "numpy", *POLYNOMIALS, *STARTUP}),
    "degree-plan": (["degree-plan", "3", "10"], "newton",
                    {"family", "coverings", "exact.ellcurve", "exact.finitefield",
                     "exact.quotient", "exact.modpoly", "exact.unipoly", "scandoc", "numpy",
                     *STARTUP}),
    "covering-report": (["covering-report", "7"], "coverings",
                        {"family", "qseries", "exact.ellcurve", "exact.finitefield",
                         "exact.modpoly", "scandoc", "numpy", *STARTUP}),
    "fermat-search": (["fermat-search", "3", "--bound", "20"], "coverings",
                      {"family", "qseries", "exact.ellcurve", "exact.finitefield",
                       "exact.modpoly", "scandoc", "numpy", *POLYNOMIALS, *STARTUP}),
    "family-scan": (["family-scan", "--s-height-max", "2"], "family",
                    {"coverings", "newton", "qseries", "exact.bipoly", "exact.modpoly", "pickle",
                     "numpy", *POOL, *STARTUP}),
}


@pytest.mark.parametrize("argv, runs, absent", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_each_subcommand_loads_only_its_modules(argv, runs, absent):
    loaded = loaded_modules(argv)
    assert runs in loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_a_forked_scan_loads_no_process_pool():
    loaded = loaded_modules(["family-scan", "--s-height-max", "2", "--jobs", "2"])
    assert {"family", "pickle"} <= loaded  # outcomes cross the pipes pickled
    assert not loaded & POOL, sorted(loaded & POOL)
    assert "numpy" not in loaded


def test_the_curve_layer_loads_neither_the_family_nor_numpy():
    probe = "import json, sys, ntcert.exact.ellcurve; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(json.loads(run.stdout))
    assert "ntcert.exact.ellcurve" in loaded
    assert not loaded & {"ntcert.family", "ntcert.cubicfield", "ntcert.exact.modpoly", "numpy"}


def relative_imports(path, package):
    """The ntcert modules that the module at path names in a relative import,
    at module level or inside a function; package is the module's package."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package.rsplit(".", node.level - 1)[0]
            # from .module import name, or from . import module
            names = [node.module] if node.module else [alias.name for alias in node.names]
            targets.update(f"{base}.{name}" for name in names)
    return targets


def test_the_package_import_graph_has_no_cycle():
    root = Path(ntcert.__file__).parent
    graph = {}
    for path in root.rglob("*.py"):
        parts = ["ntcert", *path.relative_to(root).with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
            package = ".".join(parts)
        else:
            package = ".".join(parts[:-1])
        graph[".".join(parts)] = relative_imports(path, package)
    assert {"ntcert.family", "ntcert.exact.unipoly", "ntcert.exact.modpoly"} <= set(graph)
    # the tests' root-count oracle: the package's own modules never import it
    assert not [m for m, targets in graph.items() if "ntcert.exact.modpoly" in targets]
    TopologicalSorter(graph).prepare()  # raises CycleError, naming a cycle
