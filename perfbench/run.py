"""End-to-end and per-layer benchmark of the ntcert command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

``--trace 0`` drives ``ntcert`` as a user does: a closed loop with one
client, each command a fresh ``python3 -m ntcert.cli`` process, repeated
until ``--seconds`` have been measured.  It prints the end-to-end metrics.
``--trace 1`` runs each command once in-process without and once with a
span around every public entry point of every ntcert module, and prints
the per-layer metrics.  Every output is checked.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import POOL_WAIT  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Set-up samples taken before the first pass; one more is taken before each pass.
SETUP_REPEATS = 3
# Every command must end by then, so that a run stays within 180 seconds.
RUN_DEADLINE_S = 170.0

# Entry points reported with calls, total and self time: the F_p kernels, fiber
# pipeline, distinctness fold, encoding, series arithmetic and desk commands.
LAYER_FUNCTIONS = (
    "exact.count_distinct_roots",
    "exact.ModPoly.pow_mod",
    "exact.irreducible_mod_p",
    "exact.primes_up_to",
    "exact.UniPoly.discriminant",
    "exact.UniPoly.resultant",
    "family.evaluate_fiber",
    "family.fiber_at_s",
    "family.torsion_bound_adaptive",
    "family.reduce_point_mod_p",
    "family.nontorsion_certificate",
    "family.scan_family",
    "family.ExtensionCertificate.to_json_dict",
    "cubicfield.distinctness_witness",
    "cubicfield.galois_class",
    "jsonio.dumps_canonical",
    "qseries.LaurentSeries.mul",
    "qseries.LaurentSeries.inverse",
    "qseries.euler_pow",
    "qseries.hauptmodul_t",
    "qseries.j_series",
    "coverings.fermat_search",
    "coverings.covering_report",
    "coverings.triangle_checks",
    "coverings.triangle_nonsingular",
    "newton.plan_degrees",
)
LAYERS = ("cli", "family", "cubicfield", "exact", "qseries", "coverings", "newton", "jsonio")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken interpreter)."""


@dataclass
class CommandRun:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Commands attempted and the problems found with their outputs."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    hashes: dict = field(default_factory=dict)

    def check(self, cmd: workloads.Command, exit_code: int, stdout: bytes, stderr: bytes) -> bool:
        """Count one command; record a failure if any check on it is false.

        Every run of a command must emit the bytes of its first run, so the
        traced run's output is compared with the untraced one's here.
        """
        self.attempted += 1
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}: {stderr[-300:].decode(errors='replace')}")
        else:
            problems += workloads.check_output(cmd.argv, stdout)
            digest = hashlib.sha256(stdout).hexdigest()
            if cmd.expected_sha256 and digest != cmd.expected_sha256:
                problems.append(f"sha256 {digest} differs from the expected {cmd.expected_sha256}")
            if self.hashes.setdefault(cmd.argv, digest) != digest:
                problems.append("output bytes differ from an earlier run of the same command")
        if problems:
            self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        return not problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], stdout_path: Path, stderr_path: Path, deadline: float) -> tuple:
    """Run one process to completion; return (wall_s, rusage, exit_code).

    The process is reaped with wait4, so the rusage is its own and that of
    the children it waited for (the --jobs pool's workers).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = perf_counter() - t0
    # Popen did not reap the process itself; tell it the outcome.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def run_command(argv: tuple[str, ...], deadline: float) -> CommandRun:
    out, err = OUT_DIR / "cmd.out", OUT_DIR / "cmd.err"
    wall, usage, code = spawn([sys.executable, "-m", "ntcert.cli", *argv], out, err, deadline)
    return CommandRun(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=code,
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
    )


def preflight(deadline: float) -> dict:
    """Check that ntcert imports from this checkout; return the versions it runs on."""
    if not (SRC / "ntcert" / "cli.py").is_file():
        raise BenchError(f"no ntcert sources under {SRC}")
    probe = ("import json, sys, numpy, ntcert.cli; print(json.dumps({'python': "
             "sys.version.split()[0], 'numpy': numpy.__version__, 'module': ntcert.cli.__file__}))")
    out, err = OUT_DIR / "probe.out", OUT_DIR / "probe.err"
    _, _, code = spawn([sys.executable, "-c", probe], out, err, deadline)
    if code != 0:
        raise BenchError(f"cannot import ntcert.cli: {err.read_text(errors='replace')[-500:]}")
    info = json.loads(out.read_text())
    if not Path(info.pop("module")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("ntcert.cli was imported from outside this checkout")
    return info


def measure_setup(deadline: float, repeats: int = 1) -> list[float]:
    """Wall time of a fresh interpreter importing ntcert.cli, `repeats` times."""
    out, err = OUT_DIR / "setup.out", OUT_DIR / "setup.err"
    times = []
    for _ in range(repeats):
        wall, _, code = spawn([sys.executable, "-c", "import ntcert.cli"], out, err, deadline)
        if code != 0:
            raise BenchError(f"importing ntcert.cli failed: {err.read_text(errors='replace')[-500:]}")
        times.append(wall)
    return times


def closed_loop(commands, seconds: float, tally: Tally, deadline: float,
                setup: list[float]) -> list[dict]:
    """Run the workload's commands in order, again and again, for about `seconds`.

    Each pass is preceded by one set-up sample, appended to `setup`, so the
    set-up samples are spread over the run like the passes.  A new pass
    starts only if a pass of median length still fits, so a run measures
    whole passes.  Returns one record per pass.
    """
    passes = []
    start = perf_counter()
    while True:
        setup.extend(measure_setup(deadline))
        runs, units = [], 0
        for cmd in commands:
            run = run_command(cmd.argv, deadline)
            if tally.check(cmd, run.exit_code, run.stdout, run.stderr):
                units += workloads.work_units(run.argv, run.stdout)
            runs.append(run)
        passes.append({
            "wall_s": sum(r.wall_s for r in runs),
            "cpu_s": sum(r.cpu_s for r in runs),
            "peak_rss_mb": max(r.peak_rss_mb for r in runs),
            "output_bytes": sum(len(r.stdout) for r in runs),
            "work_units": units,
        })
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes) + statistics.median(setup)
        if elapsed + typical > seconds or perf_counter() + 2 * typical > deadline:
            return passes


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """End-to-end metrics of a run.

    Times are means over the passes (total time over the number of
    passes).  A shared machine switches between a fast and a slow state in
    phases of 10 to 20 seconds; the median of such a mix jumps from one
    state to the other, while the mean moves with the share of time spent
    in each, so means of whole runs usually agree more closely than medians.
    """
    def mean(key):
        return statistics.fmean(p[key] for p in passes)

    return {
        "wall_s": (mean("wall_s"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (mean("cpu_s"), "s"),
        "work_per_s": (sum(p["work_units"] for p in passes) / sum(p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "output_bytes": (statistics.median(p["output_bytes"] for p in passes), "bytes"),
    }


def traced_pass(commands, tally: Tally, deadline: float) -> dict:
    """Each command once in-process untraced, then once traced; per-layer metrics."""
    calls, total_s, self_s = {}, {}, {}
    walked, import_s, plain_wall, traced_wall = 0, [], 0.0, 0.0
    fibers = presumed = 0
    for i, cmd in enumerate(commands):
        reports, outputs, ok = {}, {}, True
        for mode in ("plain", "traced"):
            out, err = OUT_DIR / f"{mode}.out", OUT_DIR / f"{mode}.err"
            report = OUT_DIR / f"{mode}.json"
            report.unlink(missing_ok=True)
            args = [sys.executable, str(TRACER), "--mode", mode, "--stdout", str(out),
                    "--report", str(report)]
            if mode == "traced":
                args += ["--spans", str(OUT_DIR / f"spans-{i}.tsv")]
            _, _, code = spawn([*args, "--", *cmd.argv], OUT_DIR / "tracer.out", err, deadline)
            if code == 0:
                reports[mode] = json.loads(report.read_text())
                code = reports[mode]["exit_code"]
            outputs[mode] = out.read_bytes() if out.exists() else b""
            ok = tally.check(cmd, code, outputs[mode], err.read_bytes()) and ok
        if not ok:
            continue
        plain, traced = reports["plain"], reports["traced"]
        import_s.append(plain["import_s"])
        plain_wall += plain["wall_s"]
        traced_wall += traced["wall_s"]
        walked += traced["walked_to_bound"]
        for name, stats in traced["layers"].items():
            calls[name] = calls.get(name, 0) + stats["calls"]
            total_s[name] = total_s.get(name, 0.0) + stats["total_s"]
            self_s[name] = self_s.get(name, 0.0) + stats["self_s"]
        if cmd.argv[0] == "family-scan":
            summary = json.loads(outputs["plain"])["summary"]
            fibers += summary["fibers_tested"]
            presumed += summary["skipped_presumed_equal"]

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.total_s"] = (total_s.get(name, 0.0), "s")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0), "s")
    metrics["family.pool_wait_s"] = (self_s.get(POOL_WAIT, 0.0), "s")
    metrics["family.presumed_equal_ratio"] = (presumed / fibers if fibers else 0.0, "ratio")
    metrics["cubicfield.walked_to_bound"] = (walked, "count")
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the machine runs right now.

    A figure far above its usual value marks a host busy through the run.
    It does not follow the smaller, faster changes in the machine's speed
    (see "Steadiness" in README.md), so it is recorded, not used to scale
    the timings.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def execute(commands, seconds: float, trace: bool, started: float | None = None) -> dict:
    """Run one benchmark run; return metrics, counts and the machine record."""
    started = perf_counter() if started is None else started
    deadline = started + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    cores = os.cpu_count() or 1
    machine = {"nproc": cores, "loadavg_start": loadavg(), "reference_loop_s_start": reference_loop_s()}
    machine.update(preflight(deadline))
    machine["busy_at_start"] = bool(machine["loadavg_start"]) and machine["loadavg_start"][0] > cores
    tally = Tally()
    if trace:
        metrics = traced_pass(commands, tally, deadline)
        passes = []
    else:
        setup = measure_setup(deadline, SETUP_REPEATS)
        passes = closed_loop(commands, seconds, tally, deadline, setup)
        metrics = end_to_end(passes, setup)
    machine["loadavg_end"] = loadavg()
    machine["reference_loop_s_end"] = reference_loop_s()
    return {
        "machine": machine,
        "passes": passes,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "sha256": {" ".join(argv): digest for argv, digest in tally.hashes.items()},
    }


def result_line(result: dict) -> str:
    failed = len(result["failures"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def print_report(tag: str, result: dict) -> None:
    """Machine record, fail_ratio and one line per metric, then the result line."""
    machine = result["machine"]
    print(f"# machine {json.dumps(machine)}")
    if machine["busy_at_start"]:
        print(f"# warning: load {machine['loadavg_start'][0]} above {machine['nproc']} cores at start")
    for failure in result["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"# {tag}: {len(result['passes'])} passes; "
          f"fail_ratio {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} commands)")
    walls = sorted(p["wall_s"] for p in result["passes"])
    if walls:
        print(f"# pass wall_s: median {statistics.median(walls):.6g} s, "
              f"max {walls[-1]:.6g} s over {len(walls)} passes")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(result_line(result))


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    commands = workloads.commands(args.workload, args.seed)
    try:
        result = execute(commands, args.seconds, bool(args.trace), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result.update(workload=args.workload, seed=args.seed)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print_report(tag, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
