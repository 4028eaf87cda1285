"""Run one ntcert command in-process, optionally with a span per layer call.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --mode traced --stdout OUT --report REPORT.json \
        [--spans SPANS.tsv] -- family-scan --a1 1 --a4 1 --s-height-max 3

``--mode plain`` runs ``ntcert.cli.main`` untouched; ``--mode traced`` first
wraps the public entry points of every ntcert module (see ``install``).  The
command's stdout goes to OUT and a JSON report to REPORT: the import time of
``ntcert.cli``, the wall time of ``main``, its exit code and, when traced,
calls, total time and self time per entry point.  Spans are kept in memory with their
parent links and written to SPANS as tab-separated lines at the end.

Only the process running ``main`` is traced.  The ``--jobs`` pool's workers
inherit the wrappers but their spans stay in the workers, so per-fiber layer
numbers come from the serial ``scan`` workload.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
from array import array
from contextlib import redirect_stdout
from time import perf_counter

# Operators traced as entry points, with the name they are reported under.
# Other operators run per coefficient or per field element, where a wrapper
# would cost more than the work it times; their time stays in the caller's.
TRACED_OPERATORS = {("LaurentSeries", "__mul__"): "mul"}
# Root span of the wait for the --jobs pool's results.
POOL_WAIT = "family.pool_wait"


class Tracer:
    """Spans with parent links, and calls, total and self time per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # One entry per span, in start order; parent is a span index or -1.
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []  # outermost calls only, so recursion counts once
        self.self_s: list[float] = []
        self._depth: list[int] = []
        self.walked_to_bound = 0
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by child spans]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name: str):
        """Context manager that records one span."""
        return _Span(self, self.name_id(name))

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, nid):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict:
        return {
            name: {"calls": self.calls[i], "total_s": self.total_s[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[nid]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


class _Span:
    __slots__ = ("tracer", "nid", "frame", "start")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        t.span_name.append(self.nid)
        t.span_parent.append(t._stack[-1][0] if t._stack else -1)
        t.span_start.append(0.0)
        t.span_end.append(0.0)
        self.frame = [len(t.span_name) - 1, 0.0]
        t._stack.append(self.frame)
        t._depth[self.nid] += 1
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        stack = t._stack
        stack.pop()
        duration = end - self.start
        index = self.frame[0]
        t.span_start[index] = self.start
        t.span_end[index] = end
        t.calls[self.nid] += 1
        t.self_s[self.nid] += duration - self.frame[1]
        t._depth[self.nid] -= 1
        if not t._depth[self.nid]:
            t.total_s[self.nid] += duration
        if stack:
            stack[-1][1] += duration
        return False


def layer_of(module_name: str) -> str:
    """``ntcert.exact.modpoly`` -> ``exact``; ``ntcert.family`` -> ``family``."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def package_modules(package: str = "ntcert") -> list:
    root = importlib.import_module(package)
    mods = [root]
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)):
            yield obj, obj.__qualname__


def _public_methods(cls):
    for attr, member in vars(cls).items():
        if (cls.__name__, attr) in TRACED_OPERATORS:
            label = TRACED_OPERATORS[cls.__name__, attr]
        elif attr.startswith("_"):
            continue
        else:
            label = attr
        fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            yield attr, member, fn, f"{cls.__qualname__}.{label}"


def install(tracer: Tracer, modules) -> int:
    """Wrap the public functions and methods defined in ``modules``.

    A function imported by name into other modules (``count_distinct_roots``
    lives in ``exact.modpoly`` and is bound in ``exact``, ``cubicfield`` and
    ``family``) is replaced at every import site, so no call escapes.
    Methods are replaced on their class.  Returns the number of entry points.
    """
    _count_walks(tracer, modules)
    wrappers = {}
    methods = 0
    for mod in modules:
        layer = layer_of(mod.__name__)
        for fn, qualname in list(_public_functions(mod)):
            wrappers[fn] = tracer.wrap(fn, f"{layer}.{qualname}")
        for cls in [c for c in vars(mod).values()
                    if inspect.isclass(c) and c.__module__ == mod.__name__]:
            for attr, member, fn, label in list(_public_methods(cls)):
                wrapped = tracer.wrap(fn, f"{layer}.{label}")
                if isinstance(member, (staticmethod, classmethod)):
                    wrapped = type(member)(wrapped)
                setattr(cls, attr, wrapped)
                methods += 1
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    _time_pool(tracer, modules)
    return len(wrappers) + methods


def _count_walks(tracer: Tracer, modules) -> None:
    """Count distinctness_witness calls that walked every prime to the bound.

    Such a call returns a verdict without a witness prime.  The counter goes
    in before the wrappers, so its cost falls inside the traced span.
    """
    cubicfield = next((m for m in modules if m.__name__ == "ntcert.cubicfield"), None)
    witness = getattr(cubicfield, "distinctness_witness", None)
    if witness is None:
        return

    @functools.wraps(witness)
    def counted(*args, **kwargs):
        w = witness(*args, **kwargs)
        if getattr(w, "prime", None) is None:
            tracer.walked_to_bound += 1
        return w

    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if obj is witness:
                setattr(mod, name, counted)


def _time_pool(tracer: Tracer, modules) -> None:
    """Put a pool whose result waits are spans in place of family's ProcessPoolExecutor."""
    family = next((m for m in modules if m.__name__ == "ntcert.family"), None)
    base = getattr(family, "ProcessPoolExecutor", None)
    if base is None:
        return

    class TimedPool(base):
        def map(self, *args, **kwargs):
            results = super().map(*args, **kwargs)

            def timed():
                while True:
                    with tracer.span(POOL_WAIT):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    yield item

            return timed()

        def shutdown(self, *args, **kwargs):
            with tracer.span(POOL_WAIT):
                return super().shutdown(*args, **kwargs)

    family.ProcessPoolExecutor = TimedPool


def run(argv: list[str], traced: bool, spans_path: str | None = None) -> tuple[bytes, dict]:
    """Import ntcert, run ``ntcert.cli.main(argv)``; return stdout bytes and the report."""
    t0 = perf_counter()
    import ntcert.cli as cli
    import_s = perf_counter() - t0
    tracer = None
    if traced:
        tracer = Tracer()
        entry_points = install(tracer, package_modules())
    out = io.StringIO()
    t1 = perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    wall_s = perf_counter() - t1
    report = {"import_s": import_s, "wall_s": wall_s, "exit_code": code}
    if tracer is not None:
        report.update(entry_points=entry_points, spans=len(tracer.span_name),
                      layers=tracer.summary(), walked_to_bound=tracer.walked_to_bound)
        if spans_path:
            tracer.write_spans(spans_path)
    return out.getvalue().encode("utf-8"), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--stdout", required=True, help="file for the command's stdout")
    parser.add_argument("--report", required=True, help="file for the JSON report")
    parser.add_argument("--spans", help="file for the spans (traced mode)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the ntcert arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    stdout, report = run(argv, args.mode == "traced", args.spans)
    with open(args.stdout, "wb") as fh:
        fh.write(stdout)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
