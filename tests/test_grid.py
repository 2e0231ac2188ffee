"""Whole-grid lock: every simulated point behind the paper's 12
Section VI claims, on every suite matrix.

One cold :func:`~repro.experiments.export.collect_all` of the full
675-point grid into an empty result store, then:

- each point's ``metrics_digest`` matches the ``export`` section of
  ``perfbench/reference.json`` (keyed by ``gate.export_point_key``), so
  a change to any simulated number on any matrix fails here and names
  the points it moved;
- all 12 claims hold;
- the cold run probes the store exactly once per point;
- a fresh context replays every point from that store without running
  a single engine, with identical digests;
- two metamorphic relations hold on all 99 workload x matrix pairs:
  the oracle accelerator is never slower than ``sparsepipe``, and
  doubling DRAM bandwidth never costs ``sparsepipe`` cycles.
"""

from __future__ import annotations

import importlib.util
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.engine.registry import run_engine
from repro.experiments.export import collect_all
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import SUITE

GRID_POINTS = 675
CLAIMS = 12
PAIRS = 99


def _load_gate():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _point(key: str) -> str:
    """``arch/workload/matrix`` of one export point key."""
    return "/".join(key.split("/")[:3])


def _mismatches(observed, reference):
    """Sorted ``arch/workload/matrix (config/reorder/block)`` labels
    of every point that is missing, extra, or digests differently."""
    keys = set(observed) | set(reference)
    return sorted(
        f"{_point(k)} ({k.split('/', 3)[3]})" for k in keys
        if observed.get(k) is None or observed.get(k) != reference.get(k)
    )


@pytest.fixture(scope="module")
def cold_grid(tmp_path_factory):
    """The cold grid: its context, export document, store, and the
    config object behind every config key it simulated."""
    store = tmp_path_factory.mktemp("store")
    configs = {}
    real_key = ExperimentContext._result_key

    def recording_key(self, arch, workload, matrix, cfg, *rest):
        configs[cfg.cache_key()] = cfg
        return real_key(self, arch, workload, matrix, cfg, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExperimentContext, "_result_key", recording_key)
        context = ExperimentContext(cache_dir=store)
        doc = collect_all(context)
    return context, doc, store, configs


def test_grid_matches_reference_digests(cold_grid):
    _, doc, _, _ = cold_grid
    observed = gate.export_digests(doc)
    reference = gate.load_reference("export")
    assert len(reference) == GRID_POINTS
    bad = _mismatches(observed, reference)
    assert not bad, (
        f"{len(bad)} of {GRID_POINTS} grid points differ from "
        "perfbench/reference.json:\n  " + "\n  ".join(bad))


def test_all_claims_hold(cold_grid):
    _, doc, _, _ = cold_grid
    failing = [c["claim"] for c in doc["summary"] if not c["holds"]]
    assert len(doc["summary"]) == CLAIMS
    assert failing == []


def test_cold_grid_probes_each_point_once(cold_grid):
    context, doc, _, _ = cold_grid
    metrics = context.metrics
    assert len(doc["manifests"]) == GRID_POINTS
    assert metrics.value("cache.misses") == GRID_POINTS
    assert metrics.value("cache.hits") == 0
    assert metrics.value("cache.disk_hits") == 0


def test_store_replays_grid_without_engines(cold_grid, monkeypatch):
    _, doc, store, configs = cold_grid

    def forbidden(*args, **kwargs):
        raise AssertionError("engine ran on a warm store")

    monkeypatch.setattr(runner_mod, "run_engine", forbidden)
    groups = defaultdict(list)
    for m in doc["manifests"]:
        groups[m["config_key"], m["reorder"], m["block_size"]].append(
            (m["arch"], m["workload"], m["matrix"]))
    warm = ExperimentContext(cache_dir=store)
    for (config_key, reorder, block_size), points in groups.items():
        results = warm.simulate_many(
            points, config=configs[config_key],
            reorder=reorder, block_size=block_size)
        assert None not in results
    replayed = {
        gate.export_point_key(m.to_dict()): m.metrics_digest
        for m in warm.manifests.values()
    }
    assert all(m.from_cache for m in warm.manifests.values())
    assert warm.metrics.value("cache.disk_hits") == GRID_POINTS
    bad = _mismatches(replayed, gate.export_digests(doc))
    assert not bad, "replayed digests differ:\n  " + "\n  ".join(bad)


def _pairs(context):
    return [(w, m) for w in context.all_workloads()
            for m in context.all_matrices()]


def test_oracle_never_slower_than_sparsepipe(cold_grid):
    """Fig 18's oracle (perfect reuse, infinite buffer) bounds
    Sparsepipe from below on every pair — points already in the grid."""
    context = cold_grid[0]
    pairs = _pairs(context)
    slower = [
        f"{w}/{m}" for w, m in pairs
        if context.simulate("oracle", w, m).seconds
        > context.simulate("sparsepipe", w, m).seconds
    ]
    assert len(pairs) == PAIRS
    assert not slower, f"oracle slower than sparsepipe on {slower}"


def test_more_bandwidth_never_costs_sparsepipe_cycles(cold_grid):
    """Doubling DRAM bandwidth never raises ``sparsepipe`` cycles; one
    engine run per pair over the grid's memoized profiles, outside the
    context so the store and its counters stay untouched."""
    context = cold_grid[0]
    base = context.config
    doubled = replace(base, memory=replace(
        base.memory, bandwidth_gbps=2 * base.memory.bandwidth_gbps))
    pairs = _pairs(context)
    costlier = []
    for w, m in pairs:
        before = context.simulate("sparsepipe", w, m).cycles
        after = run_engine(
            "sparsepipe", doubled, context.profile(w, m), context.prepared(m),
            paper_nnz=SUITE[m].paper_nnz,
        ).cycles
        if after > before:
            costlier.append(f"{w}/{m}: {before} -> {after}")
    assert len(pairs) == PAIRS
    assert not costlier, (
        "doubled bandwidth raised sparsepipe cycles on:\n  "
        + "\n  ".join(costlier))
