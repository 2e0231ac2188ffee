"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

Short-mode runs use a 2-workload x 2-matrix subset context, so the
whole file takes about a minute. They cover every workload run.py
offers, including those BENCHMARK.json leaves out.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import gate  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_the_benchmark_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        covered = sum(values[f"{name}.s"] for name in SPAN_NAMES)
        assert covered + values["unattributed.s"] == pytest.approx(
            values["tracing.wall_s"], abs=1e-6)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "export_cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_flags_a_perturbed_simresult():
    from repro.arch.sweep import ConfigSweep
    from repro.experiments.runner import ExperimentContext
    from repro.matrices.suite import SUITE
    from repro.obs.metrics import registry_from_result

    context = ExperimentContext()
    points = ConfigSweep().run(context.profile("pr", "gy"), context.prepared("gy"),
                               child.GRID, paper_nnz=SUITE["gy"].paper_nnz)

    def key(point):
        return gate.sweep_point_key("pr", "gy", child.canonical_index(point.config))

    digests = {key(p): registry_from_result(p.result).digest() for p in points}
    reference = gate.load_reference("sweep")
    assert gate.check(digests, reference, require_all=False) == (len(points), 0, [])

    victim = points[5]
    perturbed = dataclasses.replace(victim.result, cycles=victim.result.cycles + 1)
    digests[key(victim)] = registry_from_result(perturbed).digest()
    assert gate.check(digests, reference, require_all=False) == (
        len(points), 1, [key(victim)])


def test_gate_counts_missing_points_on_full_runs():
    reference = gate.load_reference("traces")
    observed = dict(list(reference.items())[1:])
    assert gate.check(observed, reference, require_all=False)[1] == 0
    assert gate.check(observed, reference)[:2] == (len(reference), 1)


def test_seed_orders_but_does_not_change_the_sweep():
    pairs = [(w, m) for w in ("pr", "bfs", "cg") for m in ("gy", "ro")]
    order_a, grid_a = child.sweep_plan(1, pairs)
    order_b, grid_b = child.sweep_plan(2, pairs)
    assert child.sweep_plan(1, pairs) == (order_a, grid_a)
    assert (order_a, grid_a) != (order_b, grid_b)
    assert sorted(order_a) == sorted(order_b) == sorted(pairs)
    assert {f: sorted(v, key=repr) for f, v in grid_a.items()} == {
        f: sorted(v, key=repr) for f, v in child.GRID.items()}
