"""One benchmark iteration in a fresh interpreter.

``run.py`` starts this script once per timed iteration and once per
set-up probe. A fresh interpreter matters: ``load_suite_matrix`` is an
``lru_cache``, workloads memoize their compiled program and the
workload registry holds singletons, so a reused interpreter would time
warm caches.

The last line of standard output is one JSON object: set-up and timed
wall seconds, CPU seconds, peak RSS, the correctness gate's counts,
and with ``--trace`` the per-layer breakdown of the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import inspect
import json
import os
import platform
import random
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402  (after the path set-up above)

#: The subset context of ``--short`` runs.
SHORT_WORKLOADS = ("pr", "sssp")
SHORT_MATRICES = ("gy", "ro")

#: design_sweep's config grid: every field leaves preprocessing
#: unchanged, so the timed phase is simulation and event synthesis only.
#: ``buffer_bytes=None`` is the per-matrix scaled buffer.
GRID = {
    "subtensor_cols": (64, 128, 256),
    "eager_is": (True, False),
    "detailed_dram": (False, True),
    "buffer_bytes": (None, 256 * 1024, 1024 * 1024),
}

#: BLAS/OpenMP pools pinned to one thread (set by run.py; recorded here).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def canonical_index(config) -> int:
    """Position of ``config`` in the unshuffled product order of GRID."""
    index = 0
    for name, values in GRID.items():
        index = index * len(values) + values.index(getattr(config, name))
    return index


def sweep_plan(seed: int, pairs):
    """The seed's evaluation order: pairs, grid fields and field values
    are shuffled; the set of points is the same for every seed."""
    rng = random.Random(seed)
    pairs = list(pairs)
    rng.shuffle(pairs)
    fields = list(GRID)
    rng.shuffle(fields)
    grid = {f: rng.sample(GRID[f], len(GRID[f])) for f in fields}
    return pairs, grid


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tree_bytes(path) -> int:
    if path is None or not Path(path).exists():
        return 0
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def environment() -> dict:
    import numpy

    from repro.matrices.suite import SUITE

    seeds = {}
    for name, spec in SUITE.items():
        found = re.search(r"seed=(\d+)", inspect.getsource(spec.build))
        seeds[name] = int(found.group(1)) if found else None
    return {
        "nproc": nproc(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "suite_generator_seeds": seeds,
    }


class ExportWorkload:
    """``collect_all`` over the grid, written with ``export_all``.

    One timed phase per interpreter: a second export in the same
    context would be served from its in-memory caches.
    """

    repeatable = False

    def __init__(self, args) -> None:
        from repro.experiments.runner import ExperimentContext

        kwargs = {"cache_dir": args.store}
        if args.workload == "export_fanout":
            kwargs.update(max_workers=nproc(), scheduler="localpool")
        if args.short:
            kwargs.update(workloads=SHORT_WORKLOADS, matrices=SHORT_MATRICES)
        self.args = args
        self.context = ExperimentContext(**kwargs)
        self.out = Path(args.out) / "export.json"

    def reset(self) -> None:
        pass

    def timed(self, span) -> None:
        from repro.experiments.export import export_all

        export_all(self.out, self.context)

    def observed(self):
        doc = json.loads(self.out.read_text())
        return {"export": gate.export_digests(doc)}, gate.claims_held(doc)

    def extra_layers(self) -> dict:
        from repro.scheduler.base import is_distributed, scheduler_names

        metrics = self.context.metrics
        hits, misses = metrics.value("cache.hits"), metrics.value("cache.misses")
        return {
            "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.cache.bytes": tree_bytes(self.args.store),
            "scheduler.fanouts": sum(
                metrics.value(f"scheduler.backend.{n}")
                for n in scheduler_names() if is_distributed(n)),
            "scheduler.submitted": metrics.value("scheduler.submitted"),
            "scheduler.completed": metrics.value("scheduler.completed"),
            "resilience.retries": metrics.value("resilience.retries"),
            "resilience.failures": metrics.value("resilience.failures"),
        }


class DesignSweepWorkload:
    """ConfigSweep plus one observed run per (workload, matrix) pair,
    over profiles and prepared matrices built in set-up.

    The timed phase touches none of the process-wide caches (suite
    matrices, compiled programs), so it can repeat in one interpreter
    after the ~10 s set-up. The engines' cross-run caches (load plans,
    buffer statics) are keyed on the prepared matrix's identity, so
    :meth:`reset` hands each repetition fresh copies and every
    repetition starts as cold as the first.
    """

    repeatable = True

    def __init__(self, args) -> None:
        from repro.experiments.runner import ExperimentContext

        kwargs = {}
        if args.short:
            kwargs.update(workloads=SHORT_WORKLOADS, matrices=SHORT_MATRICES)
        context = ExperimentContext(**kwargs)
        pairs = [(w, m) for w in context.all_workloads() for m in context.all_matrices()]
        self.config = context.config
        self.profiles = {p: context.profile(*p) for p in pairs}
        self.built = {m: context.prepared(m) for m in context.all_matrices()}
        self.order, self.grid = sweep_plan(args.seed, pairs)

    def reset(self) -> None:
        self.prepared = copy.deepcopy(self.built)

    def timed(self, span) -> None:
        from repro.arch.sweep import ConfigSweep
        from repro.engine.registry import run_engine
        from repro.matrices.suite import SUITE
        from repro.obs.metrics import MetricsObserver
        from repro.obs.timeline import TimelineObserver

        sweep = ConfigSweep(base=self.config)
        self.points, self.traces, self.trace_bytes = {}, {}, 0
        for workload, matrix in self.order:
            profile, prep = self.profiles[workload, matrix], self.prepared[matrix]
            paper_nnz = SUITE[matrix].paper_nnz
            self.points[workload, matrix] = sweep.run(
                profile, prep, self.grid, paper_nnz=paper_nnz)
            timeline, metrics_obs = TimelineObserver(), MetricsObserver()
            result = run_engine("sparsepipe", self.config, profile, prep,
                                paper_nnz=paper_nnz, observers=[timeline, metrics_obs])
            metrics_obs.finalize(result)
            # Compact, so json's C encoder runs: TimelineObserver.write's
            # indent=1 form takes the pure-Python encoder, several times slower.
            with span("obs.trace.serialize"):
                text = json.dumps(timeline.to_chrome_trace(), sort_keys=True)
            with span("bench.trace_hash"):
                data = text.encode("utf-8")
                self.traces[workload, matrix] = hashlib.sha256(data).hexdigest()[:16]
            self.trace_bytes += len(data)

    def observed(self):
        from repro.obs.metrics import registry_from_result

        sweep = {
            gate.sweep_point_key(w, m, canonical_index(p.config)):
                registry_from_result(p.result).digest()
            for (w, m), points in self.points.items() for p in points
        }
        traces = {f"{w}/{m}": h for (w, m), h in self.traces.items()}
        return {"sweep": sweep, "traces": traces}, None

    def extra_layers(self) -> dict:
        return {"obs.trace.bytes": self.trace_bytes}


def layer_metrics(tracer, wall_s: float, extra: dict) -> dict:
    """Per-layer figures of one traced timed phase."""
    from repro.workloads.registry import workload_names

    from tracer import SPAN_NAMES

    own = tracer.self_times()
    out = {"tracing.wall_s": wall_s,
           "unattributed.s": wall_s - sum(own.get(n, 0.0) for n in SPAN_NAMES)}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = own.get(name, 0.0)
        out[f"{name}.calls"] = tracer.calls[name]
    for w in workload_names():
        out[f"workloads.run_functional.{w}.s"] = own.get(f"workloads.run_functional.{w}", 0.0)
    for name in ("workloads.run_functional", "preprocess.preprocess"):
        distinct = len(tracer.keys[name])
        out[f"{name}.dup_ratio"] = tracer.calls[name] / distinct if distinct else 0.0
    calls = tracer.calls["engine.run_engine"]
    out["engine.run_engine.us_per_call"] = (
        1e6 * own.get("engine.run_engine", 0.0) / calls if calls else 0.0)
    out.update({"obs.trace.bytes": 0, "engine.cache.hit_ratio": 0.0, "engine.cache.bytes": 0,
                "scheduler.fanouts": 0, "scheduler.submitted": 0, "scheduler.completed": 0,
                "resilience.retries": 0, "resilience.failures": 0})
    out.update(extra)
    return out


def judge(work, args):
    """Gate one repetition's outputs: ``(attempted, failed, mismatched
    keys, claims held)``; with ``--record`` write them out instead."""
    observed, held = work.observed()
    if args.record:
        Path(args.record).write_text(json.dumps(observed, sort_keys=True))
        return 0, 0, [], held
    attempted = failed = 0
    mismatches = []
    for section, digests in observed.items():
        a, f, bad = gate.check(digests, gate.load_reference(section),
                               require_all=not args.short)
        attempted, failed, mismatches = attempted + a, failed + f, mismatches + bad
    if held is not None and not args.short:
        attempted += gate.CLAIMS
        failed += gate.CLAIMS - held
    return attempted, failed, mismatches, held


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("export_cold", "export_warm", "export_fanout", "design_sweep"))
    parser.add_argument("--mode", choices=("timed", "setup"), default="timed")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat a repeatable timed phase until this much is measured")
    parser.add_argument("--store", help="result-store directory (export_* workloads)")
    parser.add_argument("--out", help="directory for the run's output files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--record", help="write observed digests to this file instead of checking")
    args = parser.parse_args(argv)

    cls = DesignSweepWorkload if args.workload == "design_sweep" else ExportWorkload
    work = cls(args)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        span = tracer.span

    walls, cpus = [], []
    attempted = failed = 0
    mismatches = []
    while True:
        work.reset()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        work.timed(span)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        a, f, bad, held = judge(work, args)
        attempted, failed, mismatches = attempted + a, failed + f, mismatches + bad
        if not work.repeatable or tracer is not None or sum(walls) >= args.seconds:
            break
    rss = peak_rss_mb()

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "claims_held": held,
        "mismatches": mismatches[:10],
        "env": environment(),
        "layers": (layer_metrics(tracer, walls[0], work.extra_layers())
                   if tracer is not None else None),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
