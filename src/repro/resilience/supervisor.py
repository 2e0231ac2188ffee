"""Supervised fan-out: the one entry point for mapping a function over
sweep items.

:func:`supervised_map` keeps a sweep alive through the failures that
used to kill it:

- **Worker death** (OOM killer, segfault): the pool pass records an
  ``SP601`` diagnostic, the completed prefix is kept, and the
  remaining items degrade to supervised in-process execution — one
  dead worker no longer costs a 495-point sweep.
- **Item exceptions**: governed by ``on_error`` — ``"raise"``
  (propagate, the historical behavior), ``"skip"`` (record an
  ``SP603`` failure, leave ``None`` in that slot), or ``"retry"``
  (bounded re-attempts with ``SP602`` records, then skip-like
  failure). Simulators are pure functions, so a retry that succeeds
  is bit-identical to an undisturbed run.
- **Hangs**: an optional per-item watchdog (``timeout_s``) bounds the
  in-process attempts; expiry raises
  :class:`~repro.errors.WatchdogTimeout` carrying ``SP606``.

First attempts optionally run in one pool pass
(:func:`repro.scheduler.localpool.pool_pass`, chosen by
:func:`repro.scheduler.base.use_pool`); everything else — first
attempts without a pool, items the pool never answered, every retry —
calls ``fn`` in the calling process. So ``fn`` may close over the
caller's state, and the fault harness's at-most-once-per-process
firing gives the same retry trajectory on both substrates.

The outcome is structured (:class:`~repro.scheduler.base.FanoutOutcome`):
per-slot results, per-item failure records, retry diagnostics by
index, and the global degradation diagnostics — everything the caller
needs to record partial sweeps as first-class results.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, TypeVar

from repro.errors import Diagnostic, WatchdogTimeout
from repro.scheduler.base import (
    DEFAULT_RETRIES,
    FanoutOutcome,
    PointFailure,
    check_policy,
    use_pool,
)

T = TypeVar("T")

__all__ = ["supervised_map"]


def _call_with_watchdog(fn: Callable[[T], Any], item: T,
                        timeout_s: Optional[float]) -> Any:
    """Run one item, bounded by a watchdog thread when ``timeout_s``
    is set. A timed-out attempt raises :class:`WatchdogTimeout`; the
    stuck thread is a daemon and cannot block interpreter exit."""
    if timeout_s is None:
        return fn(item)
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = fn(item)
        except BaseException as exc:  # re-raised in the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise WatchdogTimeout(
            f"item exceeded the {timeout_s}s watchdog budget",
            diagnostics=(Diagnostic.error(
                "SP606", f"watchdog expired after {timeout_s}s",
            ),),
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def _attempt(fn: Callable[[T], Any], item: T, timeout_s: Optional[float]):
    """One in-process attempt as ``("ok", result)`` / ``("err", exc)``,
    the answer shape of the pool pass."""
    try:
        return ("ok", _call_with_watchdog(fn, item, timeout_s))
    except Exception as exc:
        return ("err", exc)


def _count(metrics, name: str, n: int = 1) -> None:
    if metrics is not None and n:
        metrics.counter(name).inc(n)


def supervised_map(
    fn: Callable[[T], Any],
    items: Iterable[T],
    max_workers: Optional[int] = None,
    worker: Optional[tuple] = None,
    on_error: str = "raise",
    retries: int = DEFAULT_RETRIES,
    timeout_s: Optional[float] = None,
    labels: Optional[Sequence[str]] = None,
    scheduler: Optional[str] = None,
    metrics=None,
) -> FanoutOutcome:
    """Map ``fn`` over ``items`` with supervision; see module docs.

    Order-preserving and, for pure ``fn``, bit-identical to a serial
    run regardless of substrate or which degradation paths fire.
    ``max_workers`` and ``scheduler`` (``"inprocess"`` /
    ``"localpool"``) pick the substrate through
    :func:`~repro.scheduler.base.use_pool`. ``worker`` is what pool
    workers run instead of ``fn``, as ``(worker_fn, initializer,
    initargs)``; it defaults to ``(fn, None, ())``, so ``fn`` must
    pickle when a pool runs without one. ``labels`` (same length as
    ``items``) name items in diagnostics; defaults to the item's
    ``repr``. The watchdog applies to in-process attempts (a pool
    cannot kill a hung worker without killing its siblings).
    ``metrics`` receives the ``scheduler.*`` counters.
    """
    check_policy(on_error)
    items = list(items)
    pooled = use_pool(scheduler, len(items), max_workers)
    outcome = FanoutOutcome(results=[None] * len(items))
    if not items:
        return outcome
    _count(metrics, "scheduler.submitted", len(items))
    backend = scheduler or ("localpool" if pooled else "inprocess")
    _count(metrics, f"scheduler.backend.{backend}")
    answers = [None] * len(items)
    if pooled:
        # Imported here: localpool imports the fault harness, whose
        # package imports this module.
        from repro.scheduler.localpool import pool_pass

        answers, degraded = pool_pass(
            worker or (fn, None, ()), items, max_workers)
        if degraded is not None:
            outcome.diagnostics.append(degraded)
            outcome.pool_broken = True
            _count(metrics, "scheduler.degraded")
    budget = 1 + (retries if on_error == "retry" else 0)
    for index, item in enumerate(items):
        label = labels[index] if labels else repr(item)
        tag, value = answers[index] or _attempt(fn, item, timeout_s)
        attempt = 1
        while tag == "err" and attempt < budget:
            outcome.retried.setdefault(index, []).append(Diagnostic.warning(
                "SP602", f"attempt {attempt}/{budget} failed ({value}); "
                "retrying", label,
            ))
            _count(metrics, "scheduler.retries")
            tag, value = _attempt(fn, item, timeout_s)
            attempt += 1
        if tag == "ok":
            outcome.results[index] = value
            _count(metrics, "scheduler.completed")
            continue
        _count(metrics, "scheduler.failed")
        if on_error == "raise":
            raise value
        outcome.failures.append(PointFailure(
            index=index, item=item, error=repr(value), attempts=attempt,
            diagnostic=Diagnostic.error(
                "SP603", f"failed after {attempt} attempt(s): {value}", label,
            ),
        ))
    return outcome
