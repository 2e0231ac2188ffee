"""The flat result store under concurrent fire, and its code digest.

Three layers of lock-in for :class:`repro.engine.cache.ResultCache`:

- **Layout** — every entry of one code generation lives flat in
  ``DIR/<code digest>/``, quarantine sits beside the entries, and
  ``clear`` also sweeps older layouts.
- **Code digest** — edits to result-producing modules change
  :func:`~repro.engine.cache.code_digest`; edits to modules that only
  consume results do not, and a store filled before a result-path
  edit is never served after it.
- **Stress** — many threads and many processes hammering one store
  concurrently produce no lost updates, no torn reads, no quarantine
  events and no ``*.tmp`` debris; injected read-side corruption
  (``cache.get`` fault site) quarantines every probed entry.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.arch.config import SparsepipeConfig
from repro.arch.simulator import SparsepipeSimulator
from repro.arch.stats import SimResult
from repro.engine.cache import (
    PACKAGE_DIR,
    ResultCache,
    code_digest,
    source_digest,
)
from repro.matrices import banded_mesh
from repro.obs.metrics import MetricsRegistry
from repro.preprocess import preprocess
from repro.resilience.faults import Fault, FaultPlan, activate
from tests.test_engine import cached_result, make_profile


@pytest.fixture(scope="module")
def result() -> SimResult:
    prep = preprocess(banded_mesh(120, 6, 400, seed=3),
                      reorder=None, block_size=None)
    return SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32)).run(
        make_profile(n_iterations=2), prep)


def _key(i: int):
    """Distinct cache key for index ``i`` (varies the config digest)."""
    return ("sparsepipe", "pr", "gy", f"cfg-{i:04d}", None, None)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
class TestFlatLayout:
    def test_same_key_same_path(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        first = cache.put(*_key(0), result=result)
        second = cache.put(*_key(0), result=result)
        assert first == second
        assert first.parent == tmp_path / code_digest()
        assert first.name.startswith("sparsepipe-pr-gy-")
        assert len(cache) == 1
        assert cached_result(cache, *_key(0)) == result

    def test_quarantine_beside_entries(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        paths = [cache.put(*_key(i), result=result) for i in range(6)]
        for path in (paths[0], paths[-1]):
            path.write_text("garbage{")
        assert cached_result(cache, *_key(0)) is None
        assert cached_result(cache, *_key(5)) is None
        assert cache.quarantine_paths() == sorted(
            cache.quarantine_dir / p.name for p in (paths[0], paths[-1]))
        assert [d.code for d in cache.pop_diagnostics()] == ["SP604"] * 2
        assert len(cache) == 4

    def test_clear_sweeps_older_generations_and_layouts(
            self, tmp_path, result):
        old_shard = tmp_path / "shard-03"
        (old_shard / "quarantine").mkdir(parents=True)
        (old_shard / "a-pr-gy-0.json").write_text("{}")
        (old_shard / "quarantine" / "b-pr-gy-0.json").write_text("{}")
        old_generation = tmp_path / "0123456789abcdef"
        old_generation.mkdir()
        (old_generation / "c-pr-gy-0.json").write_text("{}")
        (old_generation / "c-pr-gy-0.json.1.0.tmp").write_text("{")
        cache = ResultCache(tmp_path)
        cache.put(*_key(0), result=result)
        assert cache.clear() == 3
        left = sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*") if p.is_file())
        assert left == ["shard-03/quarantine/b-pr-gy-0.json"]


# ----------------------------------------------------------------------
# Code digest
# ----------------------------------------------------------------------
def _append(path: Path, text: str = "\n# edited\n") -> None:
    with open(path, "a") as handle:
        handle.write(text)


@pytest.fixture
def package_copy(tmp_path) -> Path:
    """A private copy of the ``repro`` package tree."""
    copy = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE_DIR, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


class TestCodeDigest:
    def test_installed_digest_is_the_tree_digest(self):
        assert code_digest() == source_digest(PACKAGE_DIR)

    @pytest.mark.parametrize("module", [
        "matrices/suite.py", "arch/simulator.py", "analysis/absint.py",
        "workloads/pagerank.py", "engine/cache.py",
    ])
    def test_result_path_edit_changes_digest(self, package_copy, module):
        before = source_digest(package_copy)
        _append(package_copy / module)
        assert source_digest(package_copy) != before

    @pytest.mark.parametrize("module", [
        "experiments/summary.py", "obs/metrics.py", "scheduler/base.py",
        "resilience/faults.py", "__main__.py", "testing.py",
    ])
    def test_consumer_edit_keeps_digest(self, package_copy, module):
        before = source_digest(package_copy)
        _append(package_copy / module)
        assert source_digest(package_copy) == before

    def test_new_result_module_changes_digest(self, package_copy):
        before = source_digest(package_copy)
        (package_copy / "arch" / "extra.py").write_text("X = 1\n")
        assert source_digest(package_copy) != before


_PROBE = """
import json, sys
from repro.experiments.runner import ExperimentContext
ctx = ExperimentContext(matrices=("gy",), cache_dir=sys.argv[1])
result = ctx.simulate("sparsepipe", "pr", "gy")
print(json.dumps({"cycles": result.cycles,
                  "disk_hits": ctx.metrics.value("cache.disk_hits")}))
"""


def _probe(package: Path, store: Path) -> dict:
    """Simulate sparsepipe/pr/gy with the package copy on a store."""
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(store)], env=env,
        cwd=package.parent, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestStaleStore:
    def test_store_follows_the_source(self, package_copy, tmp_path):
        store = tmp_path / "store"
        cold = _probe(package_copy, store)
        assert cold["disk_hits"] == 0
        # Consumer-only edits keep serving the stored point...
        _append(package_copy / "experiments" / "summary.py")
        _append(package_copy / "obs" / "metrics.py")
        assert _probe(package_copy, store) == {
            "cycles": cold["cycles"], "disk_hits": 1}
        # ...a generator edit must not: gy loses a third of its
        # non-zeros, so the stored cycles are stale.
        suite = package_copy / "matrices" / "suite.py"
        text = suite.read_text()
        assert "gen.banded_mesh(1736, 160, 17890, seed=102)" in text
        suite.write_text(
            text.replace("160, 17890, seed=102", "160, 12000, seed=102"))
        edited = _probe(package_copy, store)
        assert edited["disk_hits"] == 0
        assert abs(edited["cycles"] - cold["cycles"]) > 1.0


# ----------------------------------------------------------------------
# Concurrency stress (threads + processes)
# ----------------------------------------------------------------------
N_KEYS = 12


def _hammer(cache: ResultCache, doc: dict, seed: int, n_ops: int) -> int:
    """Mixed put/get workload against ``cache``; returns the number of
    successful validated reads. Every writer writes the *identical*
    result per key, so any read that returns a result must equal it —
    anything else is a lost update or torn read."""
    expected = SimResult.from_dict(doc)
    rng = random.Random(seed)
    hits = 0
    for _ in range(n_ops):
        i = rng.randrange(N_KEYS)
        if rng.random() < 0.5:
            cache.put(*_key(i), result=expected)
        else:
            got = cached_result(cache, *_key(i))
            if got is not None:
                assert got == expected, f"torn/lost entry for key {i}"
                hits += 1
    return hits


def _process_worker(root: str, doc: dict, seed: int, n_ops: int) -> int:
    return _hammer(ResultCache(root), doc, seed, n_ops)


def _assert_store_sane(cache: ResultCache, result: SimResult) -> None:
    """Post-stress invariants: no debris, no quarantine, every
    survivor readable and exact."""
    assert list(cache.root.rglob("*.tmp")) == []
    assert cache.quarantine_paths() == []
    assert cache.pop_diagnostics() == []
    survivors = 0
    for i in range(N_KEYS):
        got = cached_result(cache, *_key(i))
        if got is not None:
            assert got == result
            survivors += 1
    assert survivors == len(cache) >= 1


class TestConcurrencyStress:
    def test_thread_stress_no_lost_updates(self, tmp_path, result):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path / "store", metrics=registry)
        doc = result.to_dict()
        errors: list = []

        def worker(seed: int) -> None:
            try:
                _hammer(cache, doc, seed, n_ops=120)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        # The store holds no locks: switch threads often so that any
        # check-then-act race between a put and a probe shows up.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        _assert_store_sane(cache, result)
        assert registry.value("cache.hits") > 0

    def test_process_stress_no_lost_updates(self, tmp_path, result):
        root = tmp_path / "store"
        doc = result.to_dict()
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=4, mp_context=ctx) as pool:
            futures = [
                pool.submit(_process_worker, str(root), doc, seed, 80)
                for seed in range(4)
            ]
            for future in futures:
                future.result(timeout=120)  # re-raises worker assertions
        _assert_store_sane(ResultCache(root), result)

    def test_threads_and_processes_together(self, tmp_path, result):
        root = tmp_path / "store"
        doc = result.to_dict()
        cache = ResultCache(root)
        errors: list = []

        def worker(seed: int) -> None:
            try:
                _hammer(cache, doc, seed, n_ops=60)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            futures = [
                pool.submit(_process_worker, str(root), doc, seed + 100, 60)
                for seed in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for future in futures:
                future.result(timeout=120)
        assert errors == []
        _assert_store_sane(cache, result)


class TestInjectedCorruption:
    def test_read_faults_quarantine_into_owning_shard(
            self, tmp_path, result):
        # The owning directory is the code generation's: corpses land
        # beside its entries.
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        paths = [cache.put(*_key(i), result=result) for i in range(4)]
        plan = FaultPlan(seed=7, faults={
            "cache.get": Fault(kind="corrupt_file", rate=1.0),
        })
        with activate(plan):
            for i in range(4):
                assert cached_result(cache, *_key(i)) is None
        for path in paths:
            assert (cache.quarantine_dir / path.name).exists()
            assert not path.exists()
        assert len(cache.quarantine_paths()) == 4
        diags = cache.pop_diagnostics()
        assert [d.code for d in diags] == ["SP604"] * 4
        assert registry.value("cache.misses") == 4
        # Quarantined corpses are not live entries...
        assert len(cache) == 0
        # ...and the slots repopulate on the next put.
        cache.put(*_key(0), result=result)
        with activate(FaultPlan(seed=7, faults={})):
            assert cached_result(cache, *_key(0)) == result
