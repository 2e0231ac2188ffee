"""The scheduler protocol: one job-lifecycle contract, many substrates.

A :class:`Scheduler` owns the *execution substrate* of a fan-out —
where each job's first attempt physically runs — behind three verbs:

``submit``
    Enqueue one ``(fn, item)`` as a :class:`SchedulerJob` (PENDING).
    Nothing executes yet; submission is cheap and never fails on the
    item's behalf.
``poll``
    Drive the substrate far enough to know the job's status and
    return it. A terminal status (DONE / FAILED) means ``result`` /
    ``exception`` is populated.
``shutdown``
    Release the substrate.

The **policy layer** — retries (SP602), skip/raise (SP603), watchdog
(SP606), degrade accounting (SP601) — lives here in
:func:`run_fanout` and is deliberately *backend-agnostic*: every
re-attempt runs in the submitting process via
:meth:`Scheduler.rerun`, so the at-most-once-per-process fault
semantics of :mod:`repro.resilience.faults` hold identically on every
backend, and the chaos suite doubles as the scheduler-conformance
oracle. Backends supply only the first attempt.

Backends register themselves with :func:`register_scheduler` and are
resolved by name through :func:`create_scheduler`; see
``docs/scheduling.md`` for the backend matrix.
"""

from __future__ import annotations

import itertools
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Type, TypeVar,
    Union,
)

from repro.errors import ConfigError, Diagnostic, WatchdogTimeout

T = TypeVar("T")

#: Valid ``on_error`` policies of :func:`run_fanout`.
POLICIES = ("raise", "skip", "retry")

#: Default bounded re-attempts under ``on_error="retry"``.
DEFAULT_RETRIES = 2

#: Job lifecycle states. DONE and FAILED are terminal; RUNNING is
#: transient, substrate-side.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class PointFailure:
    """One item that exhausted its attempts."""

    index: int
    item: Any
    error: str
    attempts: int
    diagnostic: Diagnostic


@dataclass
class FanoutOutcome:
    """Everything one supervised fan-out produced."""

    #: Per-input-slot results; ``None`` where the item failed.
    results: List[Any] = field(default_factory=list)
    #: Items that exhausted their attempts (empty under ``"raise"``).
    failures: List[PointFailure] = field(default_factory=list)
    #: Retry diagnostics (SP602) by item index — non-empty entries mean
    #: the item eventually succeeded but not on its first attempt.
    retried: Dict[int, List[Diagnostic]] = field(default_factory=dict)
    #: Fan-out-wide diagnostics (SP601 substrate degradations).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: True when the substrate degraded and attempts ran in-process.
    pool_broken: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_indices(self) -> Dict[int, PointFailure]:
        return {f.index: f for f in self.failures}


@dataclass
class SchedulerJob:
    """One submitted unit of work, owned by exactly one scheduler."""

    job_id: str
    index: int
    fn: Callable
    item: Any
    label: str
    status: str = PENDING
    result: Any = None
    #: The exception behind a FAILED status (always set on failure —
    #: pool workers that cannot pickle theirs send a wrapped repr).
    exception: Optional[BaseException] = None

    @property
    def error(self) -> Optional[str]:
        return None if self.exception is None else str(self.exception)


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


class Scheduler(ABC):
    """One execution substrate behind the three-verb protocol.

    Every backend shares the constructor surface (``max_workers``,
    ``initializer``/``initargs``, ``chunksize``, ``timeout_s``) so the
    policy layer can swap substrates without renegotiating options.
    ``distributed`` tells callers whether ``fn`` must be picklable (it
    leaves the submitting process).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: True when jobs leave the submitting process (fn must pickle).
    distributed: bool = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: Sequence = (),
        chunksize: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.chunksize = chunksize
        self.timeout_s = timeout_s
        #: Substrate degradations (SP601) drained by the policy layer.
        self._diagnostics: List[Diagnostic] = []
        self.degraded = False
        self._ids = itertools.count(1)
        self._jobs: List[SchedulerJob] = []
        self._initialized = False

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, item: Any, index: int = 0,
               label: Optional[str] = None) -> SchedulerJob:
        """Enqueue one ``(fn, item)``; returns the PENDING job."""
        job = SchedulerJob(
            job_id=f"{self.name}-{next(self._ids):06d}",
            index=index, fn=fn, item=item,
            label=label if label is not None else repr(item),
        )
        self._jobs.append(job)
        return job

    def poll(self, job: SchedulerJob) -> str:
        """Drive the substrate until ``job``'s status is known."""
        if job.status == PENDING:
            self._drive(job)
        return job.status

    def shutdown(self) -> None:
        """Release the substrate. Idempotent; the base class holds no
        external resources."""

    # ------------------------------------------------------------------
    # Policy-layer hooks
    # ------------------------------------------------------------------
    def rerun(self, job: SchedulerJob) -> None:
        """Re-attempt one failed job **in the submitting process** —
        uniform across backends so retry semantics (and the fault
        harness's per-process at-most-once firing) never depend on the
        substrate."""
        job.status = PENDING
        job.result = None
        job.exception = None
        self._execute_inprocess(job)

    def drain_diagnostics(self) -> List[Diagnostic]:
        """Substrate diagnostics (SP601) accumulated since last drain."""
        drained, self._diagnostics = self._diagnostics, []
        return drained

    # ------------------------------------------------------------------
    # Shared machinery for subclasses
    # ------------------------------------------------------------------
    @abstractmethod
    def _drive(self, job: SchedulerJob) -> None:
        """Execute enough pending work for ``job`` to be terminal."""

    def _degrade(self, message: str) -> None:
        self.degraded = True
        self._diagnostics.append(Diagnostic.warning("SP601", message))

    def _ensure_worker_init(self) -> None:
        """Run the caller's initializer once in this process (the
        in-process attempts are all siblings of the submitter)."""
        if self._initialized:
            return
        self._initialized = True
        if self.initializer is not None:
            self.initializer(*self.initargs)

    def _execute_inprocess(self, job: SchedulerJob) -> None:
        """Run one job here, under the watchdog."""
        self._ensure_worker_init()
        job.status = RUNNING
        try:
            job.result = _call_with_watchdog(job.fn, job.item, self.timeout_s)
        except Exception as exc:
            job.exception = exc
            job.status = FAILED
        else:
            job.status = DONE


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Scheduler]] = {}


def register_scheduler(cls: Type[Scheduler]) -> Type[Scheduler]:
    """Class decorator: publish a backend under ``cls.name``."""
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_backends() -> None:
    """Import the built-in backends (registration is import-driven);
    deferred so ``base`` never imports its own subclasses at load."""
    from repro.scheduler import inprocess, localpool  # noqa: F401


def scheduler_names() -> Sequence[str]:
    _ensure_backends()
    return tuple(sorted(_REGISTRY))


def create_scheduler(name: str, **options: Any) -> Scheduler:
    """Instantiate a backend by registry name."""
    _ensure_backends()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown scheduler backend {name!r}; "
            f"expected one of {scheduler_names()}")
    return cls(**options)


def is_distributed(scheduler: Union[str, Scheduler]) -> bool:
    """Whether jobs leave the submitting process (fn must pickle)."""
    if isinstance(scheduler, Scheduler):
        return scheduler.distributed
    _ensure_backends()
    cls = _REGISTRY.get(str(scheduler))
    if cls is None:
        raise ConfigError(
            f"unknown scheduler backend {scheduler!r}; "
            f"expected one of {scheduler_names()}")
    return cls.distributed


# ----------------------------------------------------------------------
# The backend-agnostic policy driver
# ----------------------------------------------------------------------
def _count(metrics, name: str, n: int = 1) -> None:
    if metrics is not None and n:
        metrics.counter(name).inc(n)


def run_fanout(
    scheduler: Scheduler,
    fn: Callable[[T], Any],
    items: Iterable[T],
    on_error: str = "raise",
    retries: int = DEFAULT_RETRIES,
    labels: Optional[Sequence[str]] = None,
    metrics=None,
) -> FanoutOutcome:
    """Map ``fn`` over ``items`` on ``scheduler`` under the supervised
    failure policy; the backend-independent core of
    :func:`repro.resilience.supervisor.supervised_map`.

    First attempts run on the scheduler's substrate; every re-attempt
    (``on_error="retry"``) runs in the submitting process via
    :meth:`Scheduler.rerun`. Order-preserving and, for pure ``fn``,
    bit-identical to a serial run regardless of backend or
    degradation path. ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    ``scheduler.*`` counters when given.
    """
    if on_error not in POLICIES:
        raise ValueError(
            f"on_error must be one of {POLICIES}, got {on_error!r}")
    items = list(items)
    outcome = FanoutOutcome(results=[None] * len(items))
    if not items:
        return outcome
    jobs = []
    for index, item in enumerate(items):
        label = labels[index] if labels else repr(item)
        jobs.append(scheduler.submit(fn, item, index=index, label=label))
    _count(metrics, "scheduler.submitted", len(jobs))
    _count(metrics, f"scheduler.backend.{scheduler.name}")
    budget = 1 + (retries if on_error == "retry" else 0)
    for job in jobs:
        status = scheduler.poll(job)
        attempt = 1
        while status == FAILED and attempt < budget:
            outcome.retried.setdefault(job.index, []).append(
                Diagnostic.warning(
                    "SP602",
                    f"attempt {attempt}/{budget} failed "
                    f"({job.error}); retrying", job.label,
                ))
            _count(metrics, "scheduler.retries")
            scheduler.rerun(job)
            status = scheduler.poll(job)
            attempt += 1
        if status == DONE:
            outcome.results[job.index] = job.result
            _count(metrics, "scheduler.completed")
        elif status == FAILED:
            _count(metrics, "scheduler.failed")
            if on_error == "raise":
                _absorb_substrate(scheduler, outcome, metrics)
                raise job.exception
            diag = Diagnostic.error(
                "SP603",
                f"failed after {attempt} attempt(s): {job.error}", job.label,
            )
            outcome.failures.append(PointFailure(
                index=job.index, item=job.item, error=repr(job.exception),
                attempts=attempt, diagnostic=diag,
            ))
    _absorb_substrate(scheduler, outcome, metrics)
    return outcome


def _absorb_substrate(scheduler: Scheduler, outcome: FanoutOutcome,
                      metrics) -> None:
    drained = scheduler.drain_diagnostics()
    outcome.diagnostics.extend(drained)
    outcome.pool_broken = outcome.pool_broken or scheduler.degraded
    _count(metrics, "scheduler.degraded", len(drained))
