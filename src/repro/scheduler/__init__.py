"""The two execution substrates of a supervised fan-out — here, in the
calling process (``inprocess``), or one process-pool pass
(``localpool``). See :mod:`repro.scheduler.base` and
``docs/scheduling.md``; the fan-out itself is
:func:`repro.resilience.supervisor.supervised_map`.
"""

from repro.scheduler.base import (
    DEFAULT_RETRIES,
    POLICIES,
    FanoutOutcome,
    PointFailure,
    check_policy,
    is_distributed,
    scheduler_names,
    use_pool,
)

__all__ = [
    "DEFAULT_RETRIES",
    "FanoutOutcome",
    "POLICIES",
    "PointFailure",
    "check_policy",
    "is_distributed",
    "scheduler_names",
    "use_pool",
]
