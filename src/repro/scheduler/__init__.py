"""Pluggable execution substrates behind one job-lifecycle protocol.

``submit / poll / shutdown`` — see
:mod:`repro.scheduler.base` for the contract and ``docs/scheduling.md``
for the two backends (``inprocess`` / ``localpool``).
"""

from repro.scheduler.base import (
    DEFAULT_RETRIES,
    DONE,
    FAILED,
    FanoutOutcome,
    PENDING,
    POLICIES,
    PointFailure,
    RUNNING,
    Scheduler,
    SchedulerJob,
    create_scheduler,
    is_distributed,
    register_scheduler,
    run_fanout,
    scheduler_names,
)
from repro.scheduler.inprocess import InprocessScheduler
from repro.scheduler.localpool import LocalPoolScheduler, pool_chunksize

__all__ = [
    "DEFAULT_RETRIES",
    "DONE",
    "FAILED",
    "FanoutOutcome",
    "InprocessScheduler",
    "LocalPoolScheduler",
    "PENDING",
    "POLICIES",
    "PointFailure",
    "RUNNING",
    "Scheduler",
    "SchedulerJob",
    "create_scheduler",
    "is_distributed",
    "pool_chunksize",
    "register_scheduler",
    "run_fanout",
    "scheduler_names",
]
