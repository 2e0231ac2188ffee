"""The local process-pool backend: ``ProcessPoolExecutor`` behind the
scheduler protocol.

This is the **only** module in the supervised execution stack allowed
to name ``ProcessPoolExecutor`` (selfcheck rule SP914).

Driving is *batched*: the first ``poll`` ships every pending job
through one pool pass. Per-item exceptions are captured in-worker by
the :func:`_pooled_call` wrapper (one raising item no longer kills the
chunked map for its neighbors). Whenever the pool stops answering — a
worker OOM-killed (``BrokenProcessPool``), a result that cannot be
shipped back, or no pool at all — an SP601 degradation is recorded and
the remaining jobs complete in-process; the pool is never dropped
silently. With one pending job or ``max_workers <= 1``
the pool is skipped outright — parallelism would not pay, and the
in-process path keeps the per-item watchdog applicable.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Tuple

from repro.resilience import faults
from repro.scheduler.base import (
    DONE,
    FAILED,
    PENDING,
    Scheduler,
    SchedulerJob,
    register_scheduler,
)


def pool_chunksize(n_items: int, max_workers: Optional[int]) -> int:
    """Chunk size giving each worker ~2 chunks for tail-balancing.

    ``ProcessPoolExecutor`` defaults ``max_workers`` to
    ``os.cpu_count()``, so that — not a guess from the item count — is
    the worker count the heuristic must divide by.
    """
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, -(-n_items // (max(1, workers) * 2)))


def _worker_boot(initializer, initargs, plan) -> None:
    """Pool-worker initializer: mark the process as a worker (arms
    ``worker_death`` faults), install the parent's fault plan (fork
    inherits it, spawn would not), then run the caller's init."""
    faults.mark_worker()
    if plan is not None:
        faults.install(plan)
    if initializer is not None:
        initializer(*initargs)


def _pooled_call(payload: Tuple) -> Tuple:
    """In-worker wrapper: run one item and return ``("ok", result)``
    or ``("err", exception)`` — so a raising item is a *value*, not a
    dead map iterator."""
    fn, item = payload
    try:
        return ("ok", fn(item))
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(repr(exc))
        return ("err", exc)


@register_scheduler
class LocalPoolScheduler(Scheduler):
    """Process-pool execution with in-process degrade."""

    name = "localpool"
    distributed = True

    def _drive(self, job: SchedulerJob) -> None:
        pending = [j for j in self._jobs if j.status == PENDING]
        if len(pending) > 1 and (
            self.max_workers is None or self.max_workers > 1
        ):
            self._pool_pass(pending)
        for tail in pending:
            if tail.status == PENDING:
                self._execute_inprocess(tail)

    def _pool_pass(self, pending: List[SchedulerJob]) -> None:
        """Ship every pending job through one pool map; jobs the pool
        never answered for (break, result-pickling failure, no pool at
        all) stay PENDING for the in-process tail, behind an SP601."""
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = pool_chunksize(len(pending), self.max_workers)
        done = 0
        try:
            with ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_worker_boot,
                initargs=(self.initializer, self.initargs,
                          faults.active_plan()),
            ) as pool:
                results = pool.map(
                    _pooled_call,
                    [(j.fn, j.item) for j in pending],
                    chunksize=chunksize,
                )
                try:
                    for job in pending:
                        tag, value = next(results)
                        if tag == "ok":
                            job.result = value
                            job.status = DONE
                        else:
                            job.exception = value
                            job.status = FAILED
                        done += 1
                except BrokenProcessPool:
                    self._degrade(
                        f"process pool broke after {done}/{len(pending)} "
                        "item(s) (worker killed?); completing the sweep "
                        "serially in-process")
                except Exception as exc:
                    # A result failed to come back (e.g. unpicklable);
                    # the chunked iterator is dead.
                    self._degrade(
                        f"process pool lost a result after {done}/"
                        f"{len(pending)} item(s) ({exc!r}); completing "
                        "the sweep serially in-process")
        except (OSError, PermissionError, ValueError) as exc:
            # No semaphores / fork denied.
            self._degrade(
                f"no process pool could be created ({exc!r}); running "
                "the sweep serially in-process")
