"""Tests of the benchmark itself, at tiny sizes (scan height 3, modular order 24)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

TINY = (
    Command(("family-scan", "--a1", "1", "--a4", "1", "--s-height-max", "3")),
    Command(("family-scan", "--a1", "2", "--a4", "3", "--s-height-max", "3", "--jobs", "2")),
    Command(("modular-verify", "--order", "24")),
)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return bench.execute(TINY, seconds=0.1, trace=False)


@pytest.fixture(scope="module")
def traced():
    return bench.execute(TINY, seconds=0.1, trace=True)


def test_untraced_and_traced_paths_emit_identical_bytes(untraced, traced):
    assert untraced["failures"] == [] and traced["failures"] == []
    assert set(untraced["sha256"]) == {" ".join(c.argv) for c in TINY}
    assert untraced["sha256"] == traced["sha256"]


def test_self_times_sum_to_traced_wall_within_overhead(traced):
    metrics = {name: value for name, (value, _) in traced["metrics"].items()}
    self_total = sum(metrics[f"{layer}.self_s"] for layer in bench.LAYERS)
    wall = metrics["trace.traced_wall_s"]
    overhead = abs(metrics["trace.overhead_s"])
    assert self_total <= wall
    assert wall - self_total <= max(overhead, 0.01 * wall)
    assert metrics["family.scan_family.calls"] == 2
    assert metrics["qseries.LaurentSeries.mul.calls"] > 0


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(untraced, traced, capsys, trace, section):
    bench.print_report("tiny", traced if trace else untraced)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any("fail_ratio 0 " in line for line in lines)


def test_seed_zero_runs_the_commands_with_recorded_bytes():
    argvs = [c.argv for w in workloads.WORKLOADS for c in workloads.commands(w, 0)]
    assert sorted(argvs) == sorted(workloads.EXPECTED_SHA256)
    assert all(c.expected_sha256 is None for c in workloads.commands("scan", 1))


def test_wrappers_replace_every_import_site():
    probe = """
import ntcert, ntcert.cubicfield as cf, ntcert.exact as ex, ntcert.family as fam
import ntcert.exact.modpoly as mp, ntcert.exact.primes as ps, ntcert.exact.quotient as qu
import tracer
tracer.install(tracer.Tracer(), tracer.package_modules())
sites = {
    "count_distinct_roots": [mp, ex, cf, fam],
    "primes_up_to": [ps, ex, qu, cf],
    "galois_class": [cf, fam, ntcert],
}
for name, mods in sites.items():
    fns = {id(getattr(m, name)) for m in mods}
    assert len(fns) == 1 and hasattr(getattr(mods[0], name), "__wrapped__"), name
"""
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                   env={**bench.child_env(), "PYTHONPATH": f"{bench.SRC}:{BENCH_DIR}"})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
