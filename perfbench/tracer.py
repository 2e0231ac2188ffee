"""Span recording for the benchmark's traced run.

The traced run wraps the public entry point of each ``repro`` layer
from outside -- nothing under ``src/`` knows it is being traced -- and
records one span (name, start, end, parent) per call plus call counts
and the distinct inputs each layer saw. Spans stay in memory and are
folded into per-layer self times once the timed phase ends: a span's
self time is its duration minus the durations of its direct children,
so the self times of all spans plus the time no span covers add up to
the traced wall time exactly.

Untraced runs never import the patching code below, so end-to-end
metrics are measured on the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: One ``[name, tag, start, end, parent_index]`` row per call.
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        #: Distinct input keys per span name (for duplicate-work ratios).
        self.keys: Dict[str, set] = defaultdict(set)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tag) -> list:
        stack = self._stack()
        row = [name, tag, time.perf_counter(), None, stack[-1] if stack else None]
        stack.append(len(self.spans))
        self.spans.append(row)
        self.calls[name] += 1
        return row

    def _close(self, row: list) -> None:
        self._stack().pop()
        row[3] = time.perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Optional[Callable] = None,
        tag: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``key(*args, **kwargs)`` names the call's input for duplicate
        counting; ``tag(*args, **kwargs)`` sub-labels the span (e.g.
        the workload of a functional run).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            row = self._open(name, tag(*args, **kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block of benchmark code."""
        row = self._open(name, None)
        try:
            yield
        finally:
            self._close(row)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, and per ``name.tag`` for tagged
        spans (the tagged figures split, and do not add to, the
        untagged one)."""
        child_time = [0.0] * len(self.spans)
        for name, _tag, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, tag, start, end, _parent), covered in zip(self.spans, child_time):
            own = (end - start) - covered
            out[name] += own
            if tag is not None:
                out[f"{name}.{tag}"] += own
        return dict(out)


def _fingerprint(matrix) -> tuple:
    """Identity of a suite matrix as the layers see it: shape and nnz."""
    return (tuple(matrix.shape), int(matrix.nnz))


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``
    (the defining module and every ``from x import f`` copy)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: Experiment drivers timed as ``experiments.<driver>``.
DRIVERS = (
    ("table1", "run"), ("fig14", "run"), ("fig15", "run"), ("fig16", "run"),
    ("fig17", "run"), ("fig18", "run"), ("fig19", "run"),
    ("fig20", "run_storage"), ("fig20", "run_perf_per_area"),
    ("fig21", "run"), ("fig22", "run"), ("fig23", "run"), ("summary", "run"),
)

#: Every span name :func:`instrument` and the benchmark record. Their
#: self times plus ``unattributed.s`` make up the traced wall time.
SPAN_NAMES = (
    "workloads.run_functional",
    "preprocess.preprocess",
    "matrices.load_suite_matrix",
    "graphblas.Matrix",
    "dataflow.compile_program",
    "arch.WorkloadProfile.from_program",
    "arch.ConfigSweep.run",
    "engine.run_engine",
    "engine.cache.get",
    "engine.cache.put",
    "obs.timeline.to_chrome_trace",
    "obs.metrics.finalize",
    "obs.trace.serialize",
    "experiments.simulate",
    "experiments.simulate_many",
    "experiments.collect_all",
    "experiments.export.write",
    "scheduler.fanout",
    "bench.trace_hash",
) + tuple(sorted({f"experiments.{mod}" for mod, _ in DRIVERS}))


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark
    measures. Call after the benchmark's own imports and before the
    timed phase; the patches last for the life of the process."""
    import importlib

    from repro.arch.profile import WorkloadProfile
    from repro.arch.sweep import ConfigSweep
    from repro.dataflow import compiler
    from repro.engine import registry
    from repro.engine.cache import ResultCache
    from repro.experiments import export
    from repro.experiments.runner import ExperimentContext
    from repro.graphblas.matrix import Matrix
    from repro.matrices import suite
    from repro.obs.metrics import MetricsObserver
    from repro.obs.timeline import TimelineObserver
    from repro.preprocess import pipeline
    from repro.resilience import supervisor
    from repro.workloads.registry import get_workload, workload_names

    pre_sig = inspect.signature(pipeline.preprocess)

    def preprocess_key(*args, **kwargs):
        bound = pre_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (_fingerprint(a["matrix"]), a["reorder"], a["block_size"])

    functions = (
        ("preprocess.preprocess", pipeline, "preprocess", preprocess_key),
        ("matrices.load_suite_matrix", suite, "load_suite_matrix", None),
        ("dataflow.compile_program", compiler, "compile_program", None),
        ("engine.run_engine", registry, "run_engine", None),
        ("scheduler.fanout", supervisor, "supervised_map", None),
        ("experiments.collect_all", export, "collect_all", None),
        ("experiments.export.write", export, "export_all", None),
    )
    for name, module, attr, key in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, key=key))
    for mod, attr in DRIVERS:
        module = importlib.import_module(f"repro.experiments.{mod}")
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(f"experiments.{mod}", original))

    methods = (
        ("graphblas.Matrix", Matrix, "__init__"),
        ("experiments.simulate", ExperimentContext, "simulate"),
        ("experiments.simulate_many", ExperimentContext, "simulate_many"),
        ("engine.cache.get", ResultCache, "get_entry"),
        ("engine.cache.put", ResultCache, "put"),
        ("obs.timeline.to_chrome_trace", TimelineObserver, "to_chrome_trace"),
        ("obs.metrics.finalize", MetricsObserver, "finalize"),
        ("arch.ConfigSweep.run", ConfigSweep, "run"),
    )
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    from_program = WorkloadProfile.__dict__["from_program"].__func__
    WorkloadProfile.from_program = classmethod(
        tracer.wrap("arch.WorkloadProfile.from_program", from_program))

    # run_functional is overridden per workload class; wrap each
    # defining class once and tag spans with the workload's name.
    patched = set()
    for wname in workload_names():
        for cls in type(get_workload(wname)).__mro__:
            if "run_functional" in vars(cls):
                break
        if cls in patched:
            continue
        patched.add(cls)
        cls.run_functional = tracer.wrap(
            "workloads.run_functional", cls.run_functional,
            key=lambda self, matrix, *a, **k: (self.name, _fingerprint(matrix)),
            tag=lambda self, *a, **k: self.name,
        )
