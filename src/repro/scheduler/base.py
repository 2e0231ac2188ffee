"""The two execution substrates and the outcome types of a fan-out.

A fan-out's first attempts run either here, in the calling process
(``inprocess``), or through one ``ProcessPoolExecutor`` pass
(``localpool``, :mod:`repro.scheduler.localpool`). :func:`use_pool` is
the one place that picks between them; the policy loop around the
substrate — retries (SP602), skip/raise (SP603), watchdog (SP606),
degrade accounting (SP601) — is
:func:`repro.resilience.supervisor.supervised_map`. See
``docs/scheduling.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError, Diagnostic

#: Valid ``on_error`` policies of a supervised fan-out.
POLICIES = ("raise", "skip", "retry")

#: Default bounded re-attempts under ``on_error="retry"``.
DEFAULT_RETRIES = 2

#: Backend name -> whether first attempts leave the calling process.
_BACKENDS = {"inprocess": False, "localpool": True}


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
    #: True when the pool stopped answering and attempts ran in-process.
    pool_broken: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_indices(self) -> Dict[int, PointFailure]:
        return {f.index: f for f in self.failures}


def check_policy(on_error: str) -> str:
    """``on_error`` itself; ConfigError unless it is one of POLICIES."""
    if on_error not in POLICIES:
        raise ConfigError(
            f"on_error must be one of {POLICIES}, got {on_error!r}")
    return on_error


def scheduler_names() -> Sequence[str]:
    return tuple(sorted(_BACKENDS))


def is_distributed(scheduler: str) -> bool:
    """Whether first attempts leave the calling process; ConfigError
    on an unknown backend name."""
    if scheduler not in _BACKENDS:
        raise ConfigError(
            f"unknown scheduler backend {scheduler!r}; "
            f"expected one of {scheduler_names()}")
    return _BACKENDS[scheduler]


def use_pool(scheduler: Optional[str], n_items: int,
             max_workers: Optional[int]) -> bool:
    """Whether a fan-out makes a pool pass: more than one item and more
    than one worker. ``max_workers=None`` means serial unless
    ``scheduler="localpool"`` asks for the pool's default width;
    ``"inprocess"`` forces serial."""
    if scheduler is not None and not is_distributed(scheduler):
        return False
    if n_items <= 1:
        return False
    if max_workers is None:
        return scheduler is not None
    return max_workers > 1
