"""Tests for the resilience layer: the supervised fan-out, the
chunksize fix, the watchdog, the fault-injection harness, and cache
quarantine semantics."""

import collections
import json
import os
import time

import pytest

from repro.arch.config import SparsepipeConfig
from repro.engine import ResultCache
from repro.errors import InjectedFault, ReproError, WatchdogTimeout
from repro.experiments.runner import ExperimentContext
from repro.resilience import (
    Fault,
    FaultPlan,
    activate,
    drain_fired,
    supervised_map,
)
from repro.resilience import faults as faults_mod
from repro.scheduler import FanoutOutcome
from repro.scheduler.localpool import pool_chunksize
from tests.test_engine import cached_result

_PARENT_PID = os.getpid()


# ----------------------------------------------------------------------
# Module-level (picklable) worker functions
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _die_on_three(x):
    """Simulates an OOM-killed worker: dies only in a pool worker, so
    the serial fallback in the parent completes normally."""
    if x == 3 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * 2


_CALLS = collections.Counter()


def _flaky_once(x):
    """Fails the first time each value is seen (in this process)."""
    _CALLS[x] += 1
    if _CALLS[x] == 1:
        raise ValueError(f"transient failure on {x}")
    return x * 2


def _always_fails(x):
    raise ValueError(f"permanent failure on {x}")


def _slow(x):
    time.sleep(30)
    return x  # pragma: no cover - the watchdog fires first


class TestParallelMapRegressions:
    def test_chunksize_uses_real_worker_count(self, monkeypatch):
        # Seed bug: with max_workers=None the heuristic divided by
        # len(items)//2 instead of the pool's real default, os.cpu_count().
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_chunksize(64, None) == 8  # 64 / (4 * 2)
        assert pool_chunksize(64, 2) == 16    # explicit workers win
        assert pool_chunksize(1, None) == 1   # never below one
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_chunksize(10, None) == 5  # cpu_count unknown -> 1


class TestSupervisedMap:
    def test_worker_death_degrades_with_sp601(self):
        outcome = supervised_map(_die_on_three, range(6), max_workers=2)
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.pool_broken
        assert [d.code for d in outcome.diagnostics] == ["SP601"]
        assert outcome.ok

    def test_raise_policy_propagates(self):
        with pytest.raises(ValueError, match="permanent"):
            supervised_map(_always_fails, [1, 2], max_workers=1)

    def test_skip_policy_records_failures(self):
        outcome = supervised_map(
            _always_fails, [1, 2, 3], max_workers=1, on_error="skip")
        assert outcome.results == [None, None, None]
        assert len(outcome.failures) == 3
        assert all(f.diagnostic.code == "SP603" for f in outcome.failures)
        assert [f.index for f in outcome.failures] == [0, 1, 2]
        assert not outcome.ok

    def test_retry_policy_recovers_transients(self):
        _CALLS.clear()
        outcome = supervised_map(
            _flaky_once, [4, 5],
            max_workers=1, on_error="retry", retries=2)
        assert outcome.results == [8, 10]
        assert outcome.ok
        assert sorted(outcome.retried) == [0, 1]
        assert all(d.code == "SP602"
                   for diags in outcome.retried.values() for d in diags)

    def test_retry_policy_exhausts_to_failure(self):
        outcome = supervised_map(
            _always_fails, [1], max_workers=1, on_error="retry", retries=2)
        assert outcome.results == [None]
        assert outcome.failures[0].attempts == 3

    def test_watchdog_times_out_hung_item(self):
        outcome = supervised_map(
            _slow, [1], max_workers=1, on_error="skip", timeout_s=0.2)
        assert outcome.results == [None]
        assert "SP606" in outcome.failures[0].error or "watchdog" in (
            outcome.failures[0].error
        )

    def test_watchdog_raise_policy(self):
        with pytest.raises(WatchdogTimeout):
            supervised_map(_slow, [1], max_workers=1, timeout_s=0.2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            supervised_map(_double, [1], on_error="ignore")

    def test_empty_items(self):
        outcome = supervised_map(_double, [], max_workers=4)
        assert outcome == FanoutOutcome(results=[])


class TestFaultPlan:
    def test_should_fire_is_pure_and_seeded(self):
        plan = FaultPlan(seed=1, faults={"s": Fault(kind="raise", rate=0.5)})
        fires = [plan.should_fire("s", str(k)) for k in range(200)]
        again = [plan.should_fire("s", str(k)) for k in range(200)]
        assert fires == again                      # deterministic
        assert 40 < sum(fires) < 160               # roughly the rate
        other = FaultPlan(seed=2, faults={"s": Fault(kind="raise", rate=0.5)})
        assert fires != [other.should_fire("s", str(k)) for k in range(200)]

    def test_explicit_keys_override_rate(self):
        plan = FaultPlan(seed=0, faults={
            "s": Fault(kind="raise", rate=0.0, keys=("a",))})
        assert plan.should_fire("s", "a")
        assert not plan.should_fire("s", "b")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(kind="explode")

    def test_fires_at_most_once_per_key(self):
        plan = FaultPlan(seed=0, faults={"s": Fault(kind="raise", rate=1.0)})
        with activate(plan):
            with pytest.raises(InjectedFault):
                faults_mod.maybe_raise("s", "k")
            faults_mod.maybe_raise("s", "k")  # second call: no fire
            with pytest.raises(InjectedFault):
                faults_mod.maybe_raise("s", "other")
        assert len(drain_fired()) == 2

    def test_injected_fault_carries_sp607(self):
        plan = FaultPlan(seed=0, faults={"s": Fault(kind="raise")})
        with activate(plan):
            with pytest.raises(InjectedFault) as err:
                faults_mod.maybe_raise("s", "k")
        assert err.value.codes == ("SP607",)
        assert isinstance(err.value, ReproError)

    def test_corrupt_text_truncates_and_replaces(self):
        with activate(FaultPlan(seed=0, faults={
                "t": Fault(kind="corrupt_text", payload="truncate")})):
            assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "abc"
        with activate(FaultPlan(seed=0, faults={
                "t": Fault(kind="corrupt_text", payload="garbage!")})):
            assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "garbage!"
        # No plan: identity.
        assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "abcdef"

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("0123456789")
        with activate(FaultPlan(seed=0, faults={
                "f": Fault(kind="corrupt_file", payload="truncate")})):
            faults_mod.maybe_corrupt_file("f", path.name, path)
        assert path.read_text() == "01234"
        missing = tmp_path / "absent.json"
        with activate(FaultPlan(seed=0, faults={
                "f": Fault(kind="corrupt_file")})):
            faults_mod.maybe_corrupt_file("f", "absent", missing)
        assert not missing.exists()

    def test_worker_death_is_noop_outside_workers(self):
        # In the parent process a worker_death fault must never fire
        # (nor be consumed): the supervisor retries serially in-parent.
        plan = FaultPlan(seed=0, faults={
            "w": Fault(kind="worker_death", rate=1.0)})
        with activate(plan):
            faults_mod.maybe_die("w", "k")  # must not exit, not consume
            assert drain_fired() == []

    def test_hooks_are_noops_without_a_plan(self):
        faults_mod.maybe_raise("s", "k")
        faults_mod.maybe_die("s", "k")
        assert faults_mod.active_plan() is None


class TestCacheTempFiles:
    def _result(self):
        from repro.arch.simulator import SparsepipeSimulator
        from repro.matrices import banded_mesh
        from repro.preprocess import preprocess
        from tests.test_engine import make_profile

        prep = preprocess(banded_mesh(120, 6, 400, seed=3),
                          reorder=None, block_size=None)
        return SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32)).run(
            make_profile(n_iterations=2), prep)

    def test_put_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        # Seed bug: the temp name was pid-only, so two threads in one
        # process tore each other's temp file.
        from pathlib import Path

        cache = ResultCache(tmp_path)
        seen = []
        original = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return original(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        result = self._result()
        cache.put("a", "pr", "gy", "k", None, None, result=result)
        cache.put("a", "pr", "gy", "k", None, None, result=result)
        tmp_names = [n for n in seen if n.endswith(".tmp")]
        assert len(tmp_names) == 2
        assert tmp_names[0] != tmp_names[1]

    def test_clear_sweeps_tmp_debris(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = self._result()
        cache.put("a", "pr", "gy", "k", None, None, result=result)
        debris = tmp_path / f"entry.json.{os.getpid()}.0.tmp"
        debris.write_text("{half-written")
        entry_debris = cache.dir / f"entry.json.{os.getpid()}.1.tmp"
        entry_debris.write_text("{half-written")
        assert cache.clear() == 1
        assert not debris.exists()
        assert not entry_debris.exists()
        assert list(tmp_path.rglob("*.tmp")) == []


class TestCacheQuarantine:
    KEY = ("sparsepipe", "pr", "gy", "abc", None, None)

    def _result(self, backend):
        from repro.arch.simulator import SparsepipeSimulator
        from repro.matrices import banded_mesh
        from repro.preprocess import preprocess
        from tests.test_engine import make_profile

        prep = preprocess(banded_mesh(120, 6, 400, seed=3),
                          reorder=None, block_size=None)
        sim = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, backend=backend))
        return sim.run(make_profile(n_iterations=2), prep)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("corruption", ["truncated", "wrong_key", "edited"])
    def test_corrupt_entries_quarantine_and_repopulate(
            self, tmp_path, backend, corruption):
        cache = ResultCache(tmp_path)
        result = self._result(backend)
        path = cache.put(*self.KEY, result=result)
        if corruption == "truncated":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif corruption == "wrong_key":
            doc = json.loads(path.read_text())
            doc["key"] = "not the stored key"
            path.write_text(json.dumps(doc))
        else:  # hand-edited result payload
            doc = json.loads(path.read_text())
            doc["result"] = {"cycles": "tampered"}
            path.write_text(json.dumps(doc))
        # Miss cleanly...
        assert cached_result(cache, *self.KEY) is None
        # ...quarantine the corpse (never silently re-missed forever)...
        assert not path.exists()
        # Quarantine lives beside the entries.
        assert (path.parent / "quarantine" / path.name).exists()
        assert [p.name for p in cache.quarantine_paths()] == [path.name]
        diags = cache.pop_diagnostics()
        assert [d.code for d in diags] == ["SP604"]
        assert cache.pop_diagnostics() == []
        # ...and re-populate on the next put.
        cache.put(*self.KEY, result=result)
        assert cached_result(cache, *self.KEY) == result

    def test_missing_file_is_plain_miss_no_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cached_result(cache, *self.KEY) is None
        assert not cache.quarantine_dir.exists()
        assert cache.pop_diagnostics() == []

    def test_context_counts_quarantine(self, tmp_path):
        ctx = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        ctx.simulate("ideal", "pr", "gy")
        entry = next(tmp_path.rglob("*.json"))
        entry.write_text("garbage{")
        fresh = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        fresh.simulate("ideal", "pr", "gy")
        assert fresh.metrics.counter("cache.quarantined").value == 1
        manifest = fresh.manifest("ideal", "pr", "gy")
        assert any(f.get("code") == "SP604" for f in manifest.faults)


class TestSimulateManyPolicies:
    POINTS = [("ideal", "pr", "gy"), ("ideal", "kcore", "gy")]
    PLAN = FaultPlan(seed=0, faults={
        "engine.run": Fault(kind="raise", rate=1.0)})

    def test_skip_returns_none_and_failed_manifest(self):
        ctx = ExperimentContext(on_error="skip")
        with activate(self.PLAN):
            results = ctx.simulate_many(self.POINTS)
        assert results == [None, None]
        for point in self.POINTS:
            manifest = ctx.manifest(*point)
            assert manifest.status == "failed"
            assert any(f.get("code") == "SP603" for f in manifest.faults)
        assert ctx.metrics.counter("resilience.failures").value == 2

    def test_retry_recovers_and_marks_manifest(self):
        ctx = ExperimentContext(on_error="retry")
        baseline = ExperimentContext().simulate_many(self.POINTS)
        with activate(self.PLAN):
            results = ctx.simulate_many(self.POINTS)
        assert results == baseline
        for point in self.POINTS:
            manifest = ctx.manifest(*point)
            assert manifest.status == "retried"
            assert any(f.get("code") == "SP602" for f in manifest.faults)
        assert ctx.metrics.counter("resilience.retries").value == 2

    def test_raise_policy_is_default(self):
        with activate(self.PLAN):
            with pytest.raises(InjectedFault):
                ExperimentContext().simulate_many(self.POINTS)

    def test_retried_digest_matches_clean_digest(self):
        # Failure provenance is unstable metadata: surviving a fault
        # must not change run identity.
        clean = ExperimentContext()
        clean.simulate_many(self.POINTS)
        chaotic = ExperimentContext(on_error="retry")
        with activate(self.PLAN):
            chaotic.simulate_many(self.POINTS)
        for point in self.POINTS:
            assert chaotic.manifest(*point).digest() == \
                clean.manifest(*point).digest()

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="on_error"):
            ExperimentContext(on_error="explode")
        with pytest.raises(ConfigError, match="on_error"):
            ExperimentContext().simulate_many(self.POINTS, on_error="nope")
