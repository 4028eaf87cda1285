"""Lazy package re-exports, and which modules each subcommand loads."""

import ast
import builtins
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
    "quotient": ["QuotientField"],
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
# a forked scan's outcomes cross its pipes as marshal records: pickle carries
# only a child's exception, and signal only kills a child on an early exit
PIPE = {"pickle", "signal"}
# argv is read by cli's own table, so no subcommand loads argparse or its gettext
ARGPARSE = {"argparse", "gettext"}
# fractions loads decimal; a command with no rational to build loads neither
RATIONALS = {"fractions", "decimal"}
# the modules outside ntcert that the probe reports
REPORTED = sorted(POOL | STARTUP | PIPE | ARGPARSE | RATIONALS | {"numpy"})
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
# the degree planner needs neither quotient rings nor dense polynomials, a
# scan that needs no rational root and no exact Q[theta] law carries its
# fibers as coefficient tuples and loads neither, and no subcommand loads
# exact.modpoly, the tests' root-count oracle; none loads argparse, and
# neither the start-up nor the series check nor the Fermat search builds a
# rational, so they load no fractions
SUBCOMMANDS = {
    "import-only": ([], "cli",
                    {"family", "cubicfield", "coverings", "newton", "qseries", "scandoc", "numpy",
                     "exact.modpoly", *POLYNOMIALS, *STARTUP, *ARGPARSE, *RATIONALS}),
    "modular-verify": (["modular-verify", "--order", "12"], "qseries",
                       {"family", "cubicfield", "coverings", "exact.ellcurve", "exact.finitefield",
                        "exact.modpoly", "scandoc", "numpy", *POLYNOMIALS, *STARTUP,
                        *ARGPARSE, *RATIONALS}),
    "degree-plan": (["degree-plan", "3", "10"], "newton",
                    {"family", "coverings", "exact.ellcurve", "exact.finitefield",
                     "exact.quotient", "exact.modpoly", "exact.unipoly", "scandoc", "numpy",
                     *STARTUP, *ARGPARSE}),
    "covering-report": (["covering-report", "7"], "coverings",
                        {"family", "qseries", "exact.ellcurve", "exact.finitefield",
                         "exact.modpoly", "scandoc", "numpy", *STARTUP, *ARGPARSE}),
    "fermat-search": (["fermat-search", "3", "--bound", "20"], "coverings",
                      {"family", "qseries", "exact.ellcurve", "exact.finitefield",
                       "exact.modpoly", "scandoc", "numpy", *POLYNOMIALS, *STARTUP,
                       *ARGPARSE, *RATIONALS}),
    "family-scan": (["family-scan", "--s-height-max", "2"], "family",
                    {"coverings", "newton", "qseries", "exact.bipoly", "exact.modpoly",
                     "exact.unipoly", "exact.quotient", "numpy", *PIPE, *POOL, *STARTUP,
                     *ARGPARSE}),
}


@pytest.mark.parametrize("argv, runs, absent", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_each_subcommand_loads_only_its_modules(argv, runs, absent):
    loaded = loaded_modules(argv)
    assert runs in loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_a_forked_scan_loads_no_process_pool():
    loaded = loaded_modules(["family-scan", "--s-height-max", "2", "--jobs", "2"])
    assert "family" in loaded
    # outcomes cross the pipes as marshal records, and no child fails or is left early
    assert not loaded & (POOL | PIPE), sorted(loaded & (POOL | PIPE))
    assert "numpy" not in loaded


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_scan_loads_the_polynomials_where_a_fiber_needs_rational_roots(jobs):
    """At (3/2, 1), height 3, the fiber at s = -1 splits at every head prime,
    so rational_roots runs once, in this process at any job count."""
    argv = ["family-scan", "--a1", "3/2", "--a4", "1", "--s-height-max", "3", "--jobs", jobs]
    loaded = loaded_modules(argv)
    assert {"family", "exact.unipoly"} <= loaded
    assert not loaded & (POOL | PIPE), sorted(loaded & (POOL | PIPE))


def test_the_curve_layer_loads_neither_the_family_nor_numpy():
    probe = "import json, sys, ntcert.exact.ellcurve; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(json.loads(run.stdout))
    assert "ntcert.exact.ellcurve" in loaded
    # only the exact Q[theta] fallback, in _exact_point, loads the polynomial layers
    assert not loaded & {"ntcert.family", "ntcert.cubicfield", "ntcert.exact.modpoly",
                         "ntcert.exact.unipoly", "ntcert.exact.quotient", "numpy"}


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


def test_modules_outside_exact_import_from_the_defining_submodule():
    """No module outside exact/ reads a name through ntcert.exact's lazy
    table, so each submodule's import is its own; the one exception is
    count_distinct_roots in the __getattr__ hooks of family and cubicfield,
    as no module of the package may name exact.modpoly."""
    root = Path(ntcert.__file__).parent
    found = set()
    for path in root.glob("*.py"):  # every module outside exact/ lies at the top
        tree = ast.parse(path.read_text())
        hooks = {
            id(node) for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name == "__getattr__" for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in {
                (1, "exact"), (0, "ntcert.exact"),
            }:
                found.update((path.stem, alias.name, id(node) in hooks) for alias in node.names)
    assert found == {
        ("family", "count_distinct_roots", True), ("cubicfield", "count_distinct_roots", True),
    }


def scope_nodes(body):
    """The nodes of a block in its own scope: nested functions and classes
    are yielded but not entered."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def scope_names(body, args=None):
    """The names a block binds in its own scope: imports (in a TYPE_CHECKING
    block too), definitions, assignment targets and parameters."""
    names = {a.arg for a in ast.walk(args) if isinstance(a, ast.arg)} if args else set()
    for node in scope_nodes(body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def annotation_names(annotation):
    """The names an annotation reads, inside string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from annotation_names(ast.parse(node.value, mode="eval"))


def unbound_annotation_names(body, visible, where):
    """(where, name) for each name an annotation in the block reads that no
    enclosing scope binds; a signature's annotations are read where the def is."""
    visible = visible | scope_names(body)
    for node in scope_nodes(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in ast.walk(args) if isinstance(a, ast.arg)]
            for annotation in filter(None, [*annotations, node.returns]):
                yield from ((f"{where}{node.name}", name) for name in annotation_names(annotation)
                            if name not in visible)
            yield from unbound_annotation_names(
                node.body, visible | scope_names(node.body, args), f"{where}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from unbound_annotation_names(node.body, visible, f"{where}{node.name}.")
        elif isinstance(node, ast.AnnAssign):
            yield from ((where.rstrip(".") or "<module>", name)
                        for name in annotation_names(node.annotation) if name not in visible)


def test_every_annotation_name_is_bound():
    """Annotations are not evaluated (from __future__ import annotations),
    so no run finds an unbound name in one; each must be bound in its
    module, by an import (a TYPE_CHECKING block's included), a definition
    or a builtin, so that typing.get_type_hints and a type checker can
    resolve it."""
    root = Path(ntcert.__file__).parent
    found = sorted({
        (f"{path.relative_to(root).with_suffix('').as_posix().replace('/', '.')}.{where}", name)
        for path in root.rglob("*.py")
        for where, name in unbound_annotation_names(
            ast.parse(path.read_text()).body, set(dir(builtins)), "")
    })
    assert not found, found
