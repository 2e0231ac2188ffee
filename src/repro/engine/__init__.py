"""The unified execution-engine layer.

Three concerns every backend and every experiment share, factored out
of the individual models and drivers:

- :mod:`repro.engine.registry` — the :class:`Engine` protocol and the
  architecture registry (``register_arch`` / ``create_engine``);
  every model the evaluation compares plugs in here,
- :mod:`repro.engine.instrumentation` — the observer protocol for
  simulator events (step / transfer / evict / repack / prefetch) with
  a zero-observer fast path,
- :mod:`repro.engine.cache` — the persistent on-disk result store
  keyed by content (config hash) under a digest of the source.

Sweep fan-out is not an engine concern: it goes through
:func:`repro.resilience.supervisor.supervised_map`.
"""

from repro.engine.cache import CacheEntry, ResultCache, code_digest
from repro.engine.instrumentation import (
    FILL_STEP,
    CounterObserver,
    DiagnosticsObserver,
    EventLogObserver,
    Instrumentation,
    Observer,
    StepTraceObserver,
)
from repro.engine.registry import (
    ArchSpec,
    Engine,
    arch_names,
    create_engine,
    get_arch,
    register_arch,
)

__all__ = [
    "ArchSpec",
    "CacheEntry",
    "CounterObserver",
    "DiagnosticsObserver",
    "Engine",
    "EventLogObserver",
    "FILL_STEP",
    "Instrumentation",
    "Observer",
    "ResultCache",
    "StepTraceObserver",
    "arch_names",
    "code_digest",
    "create_engine",
    "get_arch",
    "register_arch",
]
