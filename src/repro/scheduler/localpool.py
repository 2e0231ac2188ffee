"""The local process-pool pass: first attempts of a fan-out on a
``ProcessPoolExecutor``.

This is the **only** module in the supervised execution stack allowed
to name ``ProcessPoolExecutor`` (selfcheck rule SP914).

:func:`pool_pass` ships every item through one chunked pool map.
Per-item exceptions are captured in-worker by the :func:`_pooled_call`
wrapper (one raising item does not kill the chunked map for its
neighbors). Whenever the pool stops answering — a worker OOM-killed
(``BrokenProcessPool``), a result that cannot be shipped back, or no
pool at all — the pass returns an SP601 degradation and leaves the
unanswered items to the caller's in-process attempts; the pool is
never dropped silently.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import Diagnostic
from repro.resilience import faults

#: What a pool worker runs: ``fn(item)`` per item, after
#: ``initializer(*initargs)`` once per worker process.
PoolTask = Tuple[Callable, Optional[Callable], Sequence]

#: One item's answer: ``("ok", result)`` or ``("err", exception)``.
Answer = Tuple[str, Any]


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


def _pooled_call(payload: Tuple) -> Answer:
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


def pool_pass(
    task: PoolTask, items: Sequence, max_workers: Optional[int],
) -> Tuple[List[Optional[Answer]], Optional[Diagnostic]]:
    """Ship every item through one pool map. Returns one answer per
    item — ``None`` where the pool never answered (break,
    result-pickling failure, no pool at all) — and the SP601
    degradation when it stopped answering."""
    fn, initializer, initargs = task
    answers: List[Optional[Answer]] = [None] * len(items)
    done = 0
    message = None
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_boot,
            initargs=(initializer, tuple(initargs), faults.active_plan()),
        ) as pool:
            results = pool.map(
                _pooled_call,
                [(fn, item) for item in items],
                chunksize=pool_chunksize(len(items), max_workers),
            )
            try:
                for answer in results:
                    answers[done] = answer
                    done += 1
            except BrokenProcessPool:
                message = (
                    f"process pool broke after {done}/{len(items)} "
                    "item(s) (worker killed?); completing the sweep "
                    "serially in-process")
            except Exception as exc:
                # A result failed to come back (e.g. unpicklable); the
                # chunked iterator is dead.
                message = (
                    f"process pool lost a result after {done}/"
                    f"{len(items)} item(s) ({exc!r}); completing the "
                    "sweep serially in-process")
    except (OSError, PermissionError, ValueError) as exc:
        # No semaphores / fork denied.
        message = (
            f"no process pool could be created ({exc!r}); running the "
            "sweep serially in-process")
    if message is None:
        return answers, None
    return answers, Diagnostic.warning("SP601", message)
