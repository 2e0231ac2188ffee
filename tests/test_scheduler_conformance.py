"""Execution-substrate conformance suite.

One parametrized suite run identically against both backends
(``inprocess`` / ``localpool``): the substrate choice, the supervised
failure policies (raise/skip/retry), the watchdog, and sweep-level
conformance — bit-identical ``SimResult``s and digest-stable manifests
regardless of substrate. Backends may not special-case their way out:
the test ids name the backend, so a failure reads as a conformance
violation of that backend.
"""

import collections
import os
import threading
import time

import pytest

from repro.__main__ import main
from repro.errors import ConfigError, WatchdogTimeout
from repro.experiments.runner import ExperimentContext
from repro.obs.metrics import MetricsRegistry
from repro.resilience import supervised_map
from repro.scheduler import (
    FanoutOutcome,
    is_distributed,
    scheduler_names,
    use_pool,
)

BACKENDS = ("inprocess", "localpool")

_PARENT_PID = os.getpid()

#: Cheap simulation points for the sweep-conformance tests.
SWEEP_POINTS = [
    ("sparsepipe", "pr", "gy"),
    ("ideal", "pr", "gy"),
    ("cpu", "pr", "gy"),
]


# ----------------------------------------------------------------------
# Module-level (picklable) job functions
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _always_fails(x):
    raise ValueError(f"permanent failure on {x}")


_CALLS = collections.Counter()


def _flaky_once(x):
    """Fails the first time each value is seen in this process — a
    worker-side first attempt leaves the parent's counter untouched,
    so the in-process retry recovers on every backend."""
    _CALLS[x] += 1
    if _CALLS[x] == 1:
        raise ValueError(f"transient failure on {x}")
    return x * 2


def _slow(x):
    time.sleep(30)
    return x  # pragma: no cover - the watchdog fires first


def _die_outside_parent(x):
    """Worker death: exits hard anywhere but the submitting process."""
    if os.getpid() != _PARENT_PID:
        os._exit(17)
    return x * 2


def _make_lock(_):
    """Returns a value no pool worker can ship back (locks don't pickle)."""
    return threading.Lock()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def fanout(backend, fn, items, **options):
    """``supervised_map`` on ``backend`` with two workers — the pool
    width the sweep-level tests use."""
    return supervised_map(fn, items, scheduler=backend, max_workers=2,
                          **options)


class TestProtocol:
    def test_registry_knows_every_backend(self):
        assert scheduler_names() == BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            is_distributed("carrier-pigeon")
        with pytest.raises(ConfigError, match="unknown scheduler"):
            supervised_map(_double, [1], scheduler="carrier-pigeon")

    def test_distributed_flag(self, backend):
        assert is_distributed(backend) == (backend != "inprocess")


class TestPoolDecision:
    """use_pool is the one place a fan-out picks its substrate."""

    @pytest.mark.parametrize("scheduler, n_items, max_workers, pooled", [
        (None, 4, 2, True),
        (None, 4, None, False),      # no width asked for: serial
        (None, 4, 1, False),
        (None, 1, 4, False),         # one item never pays for a pool
        ("localpool", 4, None, True),  # the pool's default width
        ("localpool", 4, 1, False),
        ("localpool", 1, 2, False),  # keeps the watchdog applicable
        ("inprocess", 4, 4, False),
    ])
    def test_rule(self, scheduler, n_items, max_workers, pooled):
        assert use_pool(scheduler, n_items, max_workers) is pooled


class TestInvalidSettings:
    """Fan-out settings from outside the program are rejected loudly,
    never run as a silent serial, no-retry or always-timing-out sweep."""

    @pytest.mark.parametrize("call, error", [
        (lambda: main(["export", "-j", "0", "out.json"]), SystemExit),
        (lambda: main(["export", "-j", "-3", "out.json"]), SystemExit),
        (lambda: main(["autotune", "-w", "pr", "-m", "gy", "--jobs", "0"]),
         SystemExit),
        (lambda: ExperimentContext(max_workers=0), ConfigError),
        (lambda: ExperimentContext(retries=-1), ConfigError),
        (lambda: ExperimentContext(timeout_s=-1.0), ConfigError),
        (lambda: ExperimentContext(timeout_s=0), ConfigError),
        (lambda: supervised_map(_double, [1], on_error="ignore"),
         ConfigError),
    ], ids=["jobs-0", "jobs-negative", "autotune-jobs-0", "max_workers-0",
            "retries-negative", "timeout-negative", "timeout-0",
            "unknown-on_error"])
    def test_rejected(self, call, error, capsys):
        with pytest.raises(error) as raised:
            call()
        if error is SystemExit:
            assert raised.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err


class TestPolicies:
    """supervised_map's raise/skip/retry semantics, per backend."""

    def test_identical_results(self, backend):
        outcome = fanout(backend, _double, range(6))
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.ok and not outcome.pool_broken

    def test_empty_items(self, backend):
        outcome = fanout(backend, _double, [])
        assert outcome == FanoutOutcome(results=[])

    def test_raise_policy_propagates(self, backend):
        with pytest.raises(ValueError, match="permanent"):
            fanout(backend, _always_fails, [1, 2])

    def test_skip_policy_records_failures(self, backend):
        outcome = fanout(backend, _always_fails, [1, 2, 3], on_error="skip")
        assert outcome.results == [None, None, None]
        assert [f.index for f in outcome.failures] == [0, 1, 2]
        assert all(f.diagnostic.code == "SP603" for f in outcome.failures)

    def test_retry_policy_recovers_transients(self, backend):
        _CALLS.clear()
        outcome = fanout(
            backend, _flaky_once, [4, 5], on_error="retry", retries=2)
        assert outcome.results == [8, 10]
        assert outcome.ok
        assert sorted(outcome.retried) == [0, 1]
        assert all(d.code == "SP602"
                   for diags in outcome.retried.values() for d in diags)

    def test_retry_policy_exhausts_to_failure(self, backend):
        outcome = fanout(
            backend, _always_fails, [1], on_error="retry", retries=2)
        assert outcome.results == [None]
        assert outcome.failures[0].attempts == 3

    def test_watchdog_times_out_hung_item(self, backend):
        outcome = fanout(backend, _slow, [1], on_error="skip", timeout_s=0.2)
        assert outcome.results == [None]
        error = outcome.failures[0].error
        assert "SP606" in error or "Watchdog" in error or "watchdog" in error

    def test_watchdog_raise_policy(self, backend):
        with pytest.raises(WatchdogTimeout):
            fanout(backend, _slow, [1], timeout_s=0.2)

    def test_unknown_policy_rejected(self, backend):
        with pytest.raises(ConfigError, match="on_error"):
            fanout(backend, _double, [1], on_error="ignore")

    def test_worker_death_degrades_not_crashes(self, backend):
        """A dead worker is a substrate degradation (SP601 + in-process
        completion) on distributed backends and a non-event on the
        in-process one — never a failed sweep."""
        outcome = fanout(backend, _die_outside_parent, range(4))
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.ok
        if backend == "inprocess":
            assert not outcome.pool_broken and not outcome.diagnostics
        else:
            assert outcome.pool_broken
            assert {d.code for d in outcome.diagnostics} == {"SP601"}

    def test_metrics_counters_flow(self, backend):
        metrics = MetricsRegistry()
        fanout(backend, _double, range(3), metrics=metrics)
        assert metrics.counter("scheduler.submitted").value == 3
        assert metrics.counter("scheduler.completed").value == 3
        assert metrics.counter(f"scheduler.backend.{backend}").value == 1


class TestSweepConformance:
    """simulate_many on an explicit backend: bit-identical SimResults
    and digest-stable manifests versus the serial reference."""

    def test_results_and_digests_match_serial_reference(self, backend):
        reference = ExperimentContext()
        baseline = reference.simulate_many(SWEEP_POINTS)

        context = ExperimentContext(max_workers=2, scheduler=backend)
        results = context.simulate_many(SWEEP_POINTS)

        assert results == baseline
        for point in SWEEP_POINTS:
            assert context.manifest(*point).digest() == \
                reference.manifest(*point).digest()
            assert context.manifest(*point).status == "ok"

    def test_scheduler_counters_reach_context_metrics(self, backend):
        context = ExperimentContext(max_workers=2, scheduler=backend)
        context.simulate_many(SWEEP_POINTS)
        metrics = context.metrics.to_dict()
        assert metrics["scheduler.submitted"]["value"] == len(SWEEP_POINTS)
        assert f"scheduler.backend.{backend}" in metrics

    def test_unknown_backend_rejected_at_context_construction(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            ExperimentContext(scheduler="carrier-pigeon")


class TestLocalPoolDegradation:
    """Every way the pool can stop answering is an SP601 degradation,
    never a silent in-process fallback."""

    def test_unshippable_result_degrades_with_sp601(self):
        outcome = supervised_map(_make_lock, range(4), max_workers=2)
        assert len(outcome.results) == 4
        assert all(hasattr(r, "acquire") for r in outcome.results)
        assert outcome.ok and outcome.pool_broken
        assert {d.code for d in outcome.diagnostics} == {"SP601"}

    def test_pool_creation_failure_degrades_with_sp601(self, monkeypatch):
        from repro.scheduler import localpool

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(localpool, "ProcessPoolExecutor", no_pool)
        outcome = supervised_map(_double, range(4), max_workers=2)
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.ok and outcome.pool_broken
        assert {d.code for d in outcome.diagnostics} == {"SP601"}
