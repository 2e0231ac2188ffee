"""Repository benchmark: the paper's full evaluation, timed end to end.

    python3 perfbench/run.py --workload export_cold --seed 1 --seconds 5 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``export_cold``   -- ``collect_all`` on the full grid, serial, into an
  empty result store;
* ``export_warm``   -- the same call against a store this run's own
  preparation filled with the code under test;
* ``design_sweep``  -- ``ConfigSweep`` plus one observed run for each of
  the 99 (workload, matrix) pairs, profiles built in set-up;
* ``export_fanout`` -- ``export_cold`` with ``max_workers`` = nproc on
  the ``localpool`` scheduler;
* ``all``           -- each of the above in turn, printed as one table.

``BENCHMARK.json`` lists ``export_cold`` and ``design_sweep`` only: on a
shared 2-core host the other two do not fit the benchmark's time budget
at a steady spread (``perfbench/README.md``), so they run on request.

Every timed iteration runs in a fresh interpreter (``child.py``) with a
fresh temporary store under ``.perfbench_work/`` in the checkout, BLAS
and OpenMP pinned to one thread. Iterations repeat until ``--seconds``
of timed work is measured; the run reports medians. ``--trace 1`` adds
one traced iteration and reports its per-layer breakdown instead of the
end-to-end metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("export_cold", "export_warm", "design_sweep", "export_fanout")

#: Extra set-up-only interpreters per run, so ``setup_s`` is a median
#: of several set-ups. design_sweep's set-up is the characterization of
#: all 99 pairs (~11 s), so it takes only the timed iterations' set-ups.
SETUP_PROBES = {"export_cold": 5, "export_warm": 5, "export_fanout": 5, "design_sweep": 0}

#: A run must end within 180 s: no iteration starts that would end
#: past this many seconds per workload, and none outlives it by more
#: than KILL_GRACE_S.
DEADLINE_S = 150.0
KILL_GRACE_S = 25.0

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env(work: Path) -> dict:
    """The parent's environment with the thread pins, temporary files
    kept inside the checkout, and no ``REPRO_*`` switches (fault plans,
    scheduler test matrices) leaking in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREADS)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # Manifests probe the git revision; never from a repository above
    # the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


class Runner:
    """Starts child interpreters for one benchmark invocation."""

    def __init__(self, args, work: Path, started: float, deadline_s: float) -> None:
        self.args = args
        self.work = work
        self.env = child_env(work)
        self.started = started
        self.deadline_s = deadline_s
        self.iterations = 0

    def remaining(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def child(self, workload: str, mode: str = "timed", store=None,
              trace: bool = False, record=None, seconds: float = 0.0) -> dict:
        self.iterations += 1
        out = self.work / f"iter-{self.iterations}"
        out.mkdir(parents=True)
        if store is None:
            store = out / "store"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--mode", mode, "--seed", str(self.args.seed), "--seconds", repr(seconds),
               "--store", str(store), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        if self.args.short:
            cmd.append("--short")
        if record:
            cmd += ["--record", str(record)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        # A session of its own, so a timeout also stops pool workers.
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.remaining() + KILL_GRACE_S))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{workload} {mode} iteration timed out") from exc
            raise
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode} iteration exited {proc.returncode}")
        shutil.rmtree(out, ignore_errors=True)
        return json.loads(lines[-1])

    def run_workload(self, workload: str) -> dict:
        """Iterations of one workload; returns the aggregated record."""
        store = None
        prep = []
        if workload == "export_warm":
            # Untimed preparation: fill the store with the code under test.
            store = self.work / "warm-store"
            prep.append(self.child("export_cold", store=store))
        samples = []
        walls, cpus = [], []
        longest = 0.0
        while True:
            t0 = time.monotonic()
            samples.append(self.child(workload, store=store,
                                      seconds=self.args.seconds - sum(walls)))
            longest = max(longest, time.monotonic() - t0)
            walls += samples[-1]["wall_s"]
            cpus += samples[-1]["cpu_s"]
            if sum(walls) >= self.args.seconds or self.remaining() < 1.5 * longest:
                break
        setups = [s["setup_s"] for s in samples]
        for _ in range(SETUP_PROBES[workload]):
            setups.append(self.child(workload, mode="setup", store=store)["setup_s"])
        traced = self.child(workload, store=store, trace=True) if self.args.trace else None

        checked = prep + samples + ([traced] if traced else [])
        record = {
            "workload": workload,
            "iterations": len(walls),
            "attempted": sum(s["attempted"] for s in checked),
            "failed": sum(s["failed"] for s in checked),
            "mismatches": sorted({m for s in checked for m in s["mismatches"]}),
            "claims_held": samples[0]["claims_held"],
            "env": samples[0]["env"],
            "metrics": {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            },
        }
        if traced is not None:
            layers = dict(traced["layers"])
            layers["tracing.overhead_s"] = traced["wall_s"][0] - record["metrics"]["wall_s"]
            record["layers"] = layers
        return record


def metric_units(section: str) -> dict:
    """Metric name -> unit for one BENCHMARK.json section
    (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def print_table(records) -> None:
    units = metric_units("end_to_end")
    env = records[0]["env"]
    print(f"# nproc={env['nproc']} threads={env['threads']} python={env['python']} "
          f"numpy={env['numpy']}")
    print(f"# suite generator seeds (fixed by the paper's grid): {env['suite_generator_seeds']}")
    header = ["workload"] + [f"{m} [{u}]" for m, u in units.items()] + [
        "failed_ratio [ratio]", "claims_held [count]", "iterations"]
    print("  ".join(f"{h:>20}" for h in header))
    for r in records:
        row = [r["workload"]] + [f"{r['metrics'][m]:.4f}" for m in units] + [
            f"{r['failed'] / max(1, r['attempted']):.4f}",
            "-" if r["claims_held"] is None else str(r["claims_held"]),
            str(r["iterations"])]
        print("  ".join(f"{c:>20}" for c in row))
        for key in r["mismatches"][:10]:
            print(f"#   mismatch: {key}")


def record_references(runner: Runner) -> None:
    """Re-record reference.json from this tree (full grid, seed as given)."""
    sections = []
    for workload, names in (("export_cold", ("export",)), ("design_sweep", ("sweep", "traces"))):
        path = runner.work / f"{workload}.record.json"
        runner.child(workload, record=path)
        doc = json.loads(path.read_text())
        sections += [(name, doc[name]) for name in names]
    gate.merge_reference(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders design_sweep's points; the export grid is fixed")
    parser.add_argument("--seconds", type=float,
                        help="timed work to measure per workload, at least one iteration "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="subset context (2 workloads x 2 matrices) for smoke tests")
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from this tree and exit")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # SIGTERM unwinds like Ctrl-C, so children are stopped and the work
    # directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runner = Runner(args, work, started, DEADLINE_S * len(workloads))
        if args.record:
            record_references(runner)
            return 0
        records = [runner.run_workload(w) for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print_table(records)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    for r in records:
        values = r["layers"] if args.trace else r["metrics"]
        prefix = f"{r['workload']}." if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
