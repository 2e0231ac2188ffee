"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``list``                      — workloads, matrices, architectures
- ``experiment <id> [...]``     — run table1 / fig14..fig23 / all
- ``simulate -w pr -m wi``      — one (workload, matrix) on all archs
- ``analyze <matrix.mtx>``      — Table-I reuse analysis of a file
- ``footprint``                 — Table I over the built-in suite
- ``lint [workload ...]``       — static verifier over workload graphs
- ``selfcheck``                 — AST self-lint of the library source
- ``check [workload ...]``      — absint oracle: static traffic/buffer
  bounds and OEI legality cross-checked against the simulator
- ``trace <workload> -o t.json``— export a Chrome/Perfetto trace plus
  run manifest of one simulated run (load in https://ui.perfetto.dev)
- ``sweep A/W/M [...]``         — supervised sweep over explicit
  (arch/workload/matrix) points with per-point status reporting
- ``autotune -w pr -m gy``      — explore sub-tensor widths (Section
  IV-F), probing candidates in parallel with ``--jobs N``

``lint``/``selfcheck`` take ``--format text|json`` and ``--baseline
FILE`` (a per-code finding budget; exceeding it fails the command even
for warnings, so new findings cannot accumulate silently — CI pins
``diagnostics_baseline.json``). ``--jobs N`` fans sweeps out over a
pool of N worker processes (serial in-process without it;
docs/scheduling.md); ``--cache DIR`` persists simulation results on
disk so reruns skip straight to the tables; ``--on-error skip|retry``
keeps a sweep alive through per-point failures (recorded in run
manifests — docs/robustness.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, List

from repro.engine.registry import arch_names, get_arch
from repro.experiments.runner import ExperimentContext

_EXPERIMENTS = (
    "table1", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22", "fig23",
)


def _make_context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        cache_dir=getattr(args, "cache", None),
        max_workers=getattr(args, "jobs", None),
        on_error=getattr(args, "on_error", "raise") or "raise",
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.matrices import SUITE, suite_names
    from repro.workloads import WORKLOADS, workload_names

    print("workloads (Table III):")
    for name in workload_names():
        w = WORKLOADS[name]
        oei = "cross-iteration" if w.program().has_oei else "producer-consumer"
        print(f"  {name:6} {w.semiring:9} {oei:17} {w.domain}")
    print("\nmatrices (Table I analogs):")
    for name in suite_names():
        spec = SUITE[name]
        print(f"  {name:3} {spec.structure:28} paper {spec.paper_rows} rows / "
              f"{spec.paper_nnz} nnz")
    print("\narchitectures:")
    for name in arch_names():
        print(f"  {name:12} {get_arch(name).description}")
    print(f"\nexperiments: {', '.join(_EXPERIMENTS)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    ids = list(_EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; available: {_EXPERIMENTS}",
              file=sys.stderr)
        return 2
    context = _make_context(args)
    for exp_id in ids:
        module = importlib.import_module(f"repro.experiments.{exp_id}")
        module.main(context)
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    context = _make_context(args)
    results = context.simulate_many(
        [(arch, args.workload, args.matrix) for arch in args.arch]
    )
    rows = []
    for arch, result in zip(args.arch, results):
        rows.append(
            (arch, f"{result.seconds * 1e6:.2f}", round(result.cycles),
             f"{result.bandwidth_utilization:.0%}",
             f"{result.total_bytes / 1e6:.2f}")
        )
    print(format_table(
        ["architecture", "time (us)", "cycles", "bw util", "DRAM (MB)"],
        rows,
        title=f"{args.workload} on {args.matrix}",
    ))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.formats import read_matrix_market
    from repro.oei import reuse_footprint
    from repro.util import human_bytes

    coo = read_matrix_market(args.path, strict=args.strict)
    stats = reuse_footprint(coo)
    print(f"{args.path}: {coo.shape}, {coo.nnz} non-zeros")
    print(f"OEI reuse window: max {stats.max_pct:.1f}% "
          f"({human_bytes(stats.max_bytes())}), avg {stats.avg_pct:.1f}%")
    return 0


def _cmd_footprint(_args: argparse.Namespace) -> int:
    from repro.experiments import table1

    table1.main()
    return 0


def _baseline_exceeded(
    counts: Dict[str, int], baseline_path: str, section: str
) -> int:
    """Compare per-code finding counts against the baseline file's
    ``section``; report and count codes over budget."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        budgets = json.load(fh).get(section, {})
    over = 0
    for code in sorted(counts):
        budget = int(budgets.get(code, 0))
        if counts[code] > budget:
            over += 1
            print(f"baseline exceeded: {code} x{counts[code]} "
                  f"(budget {budget}) — new findings must be fixed or "
                  "the baseline deliberately re-frozen", file=sys.stderr)
    return over


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.workloads.registry import lint_registry

    reports = lint_registry(args.workloads or None)
    n_errors = sum(len(r.errors) for r in reports.values())
    n_warnings = sum(len(r.warnings) for r in reports.values())
    counts = Counter(c for r in reports.values() for c in r.codes())

    if args.format == "json":
        print(json.dumps({
            "workloads": {
                name: [d.as_dict() for d in report]
                for name, report in reports.items()
            },
            "counts": dict(sorted(counts.items())),
            "n_errors": n_errors,
            "n_warnings": n_warnings,
        }, sort_keys=True))
    else:
        for name, report in reports.items():
            if len(report) == 0:
                print(f"{name}: ok")
            else:
                print(f"{name}:")
                for line in report.format().splitlines():
                    print(f"  {line}")
        print(f"\n{len(reports)} workload(s): {n_errors} error(s), "
              f"{n_warnings} warning(s)")
    over = (_baseline_exceeded(counts, args.baseline, "lint")
            if args.baseline else 0)
    return 1 if n_errors or over else 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.analysis.selfcheck import selfcheck

    report = selfcheck()
    counts = Counter(report.codes())
    if args.format == "json":
        print(json.dumps({
            "diagnostics": [d.as_dict() for d in report],
            "counts": dict(sorted(counts.items())),
            "n_errors": len(report.errors),
            "n_warnings": len(report.warnings),
        }, sort_keys=True))
    elif len(report) == 0:
        print("selfcheck: ok")
    else:
        print(report.format())
        print(f"\n{len(report.errors)} error(s), "
              f"{len(report.warnings)} warning(s)")
    over = (_baseline_exceeded(counts, args.baseline, "selfcheck")
            if args.baseline else 0)
    return 1 if report.errors or over else 0


def _cmd_check(args: argparse.Namespace) -> int:
    """The absint oracle: static bounds + OEI legality vs the
    simulator, per workload."""
    from repro.analysis.bounds import resolve_capacity, static_report
    from repro.arch.config import SparsepipeConfig
    from repro.arch.loaders import LoadPlan
    from repro.engine.registry import run_engine
    from repro.matrices import SUITE
    from repro.workloads.registry import get_workload, workload_names

    backends = (("vectorized", "reference") if args.backend == "both"
                else (args.backend,))
    workloads = args.workloads or list(workload_names())
    context = _make_context(args)
    paper_nnz = SUITE[args.matrix].paper_nnz
    prep = context.prepared(args.matrix)

    docs = []
    n_errors = 0
    for name in workloads:
        profile = context.profile(name, args.matrix)
        graph = get_workload(name).build_graph()
        for backend in backends:
            config = SparsepipeConfig(backend=backend)
            plan = LoadPlan.from_matrix(prep, config.subtensor_cols)
            capacity = resolve_capacity(config, plan, paper_nnz)
            report = static_report(
                graph, profile, plan, config, capacity, matrix=args.matrix
            )
            result = run_engine(
                "sparsepipe", config, profile, prep,
                paper_nnz=paper_nnz, observers=(),
            )
            oracle = report.check_against(result)
            oracle.extend(report.diagnostics)
            n_errors += len(oracle.errors)
            # The SP701 agreement is already diagnosed inside the report;
            # this is the belt-and-braces dynamic side of the same check.
            agree = report.oei.fusible == profile.has_oei
            if not agree:
                n_errors += 1
            doc = report.to_dict()
            doc["backend"] = backend
            doc["oracle_ok"] = oracle.ok and agree
            doc["simulated"] = {
                "traffic": dict(result.traffic.bytes_by_category),
                "total_bytes": result.traffic.total_bytes,
                "buffer_peak_bytes": result.buffer_peak_bytes,
            }
            docs.append(doc)
            if args.format != "json":
                verdict = "ok" if (oracle.ok and agree) else "VIOLATED"
                oei = "oei" if report.oei.fusible else "stream"
                print(f"{name:6} {backend:10} {oei:6} "
                      f"traffic {result.traffic.total_bytes:>12.0f} "
                      f"<= {report.bounds.total_bytes:>12.0f} B  "
                      f"peak {result.buffer_peak_bytes:>9.0f} "
                      f"<= {report.bounds.buffer_peak_bytes:>10.0f} B  "
                      f"{verdict}")
                for line in oracle.format().splitlines()[1:]:
                    print(f"  {line}")
    if args.format == "json":
        print(json.dumps({"points": docs, "n_errors": n_errors},
                         sort_keys=True))
    else:
        print(f"\n{len(docs)} point(s) checked: {n_errors} violation(s)")
    return 1 if n_errors else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import capture_run

    cap = capture_run(
        args.workload, matrix=args.matrix, arch=args.arch, seed=args.seed
    )
    trace_path, manifest_path = cap.write_trace(args.out)
    result = cap.result
    print(f"{args.workload} on {args.matrix} ({args.arch}): "
          f"{round(result.cycles)} cycles, "
          f"{result.total_bytes / 1e6:.2f} MB DRAM, "
          f"{cap.timeline.steps} steps")
    print(f"wrote {trace_path} ({len(cap.timeline.events)} events)")
    print(f"wrote {manifest_path} (digest {cap.manifest.digest()})")
    print("load the trace in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _parse_points(specs: List[str]) -> List[tuple]:
    points = []
    for spec in specs:
        parts = tuple(spec.split("/"))
        if len(parts) != 3:
            raise SystemExit(
                f"a sweep point is ARCH/WORKLOAD/MATRIX, got {spec!r}")
        points.append(parts)
    return points


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Supervised sweep over explicit points, reporting per-point
    status from the run manifests (docs/robustness.md)."""
    from repro.experiments.report import format_table

    context = _make_context(args)
    points = _parse_points(args.points)
    results = context.simulate_many(points)
    rows = []
    failed = 0
    for point, result in zip(points, results):
        manifest = context.manifest(*point)
        status = manifest.status if manifest is not None else "unknown"
        failed += result is None
        rows.append((
            "/".join(point), status,
            "-" if result is None else round(result.cycles),
            "-" if result is None else f"{result.total_bytes / 1e6:.2f}",
        ))
    print(format_table(
        ["point", "status", "cycles", "DRAM (MB)"], rows,
        title=f"sweep ({len(points)} point(s))",
    ))
    if args.metrics:
        print()
        print(context.metrics_report())
    return 1 if failed else 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    """Section IV-F sub-tensor width exploration, with the candidate
    probes fanned out over ``--jobs`` worker processes."""
    from repro.arch.autotune import DEFAULT_CANDIDATES, autotune_subtensor_cols
    from repro.matrices import SUITE

    context = _make_context(args)
    candidates = (tuple(int(c) for c in args.candidates.split(","))
                  if args.candidates else DEFAULT_CANDIDATES)
    profile = context.profile(args.workload, args.matrix)
    prep = context.prepared(args.matrix)
    best, result = autotune_subtensor_cols(
        profile, prep,
        candidates=candidates,
        paper_nnz=SUITE[args.matrix].paper_nnz,
        probe_iterations=args.probe_iterations,
        arch=args.arch,
        max_workers=args.jobs,
    )
    print(f"{args.workload} on {args.matrix} ({args.arch}): "
          f"best sub-tensor width {best} "
          f"(candidates {', '.join(str(c) for c in candidates)})")
    print(f"full run at width {best}: {round(result.cycles)} cycles, "
          f"{result.total_bytes / 1e6:.2f} MB DRAM")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.experiments import summary

    summary.main(_make_context(args))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    path = export_all(args.path, _make_context(args))
    print(f"wrote {path}")
    return 0


def _add_diag_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON per-code finding budget; counts above it fail the "
             "command even for warnings (CI pins diagnostics_baseline.json)",
    )


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="simulate on N worker processes (default: serial)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persist simulation results under DIR (e.g. .repro_cache)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        dest="on_error",
        help="per-point failure policy for sweeps: raise (default), "
             "skip (record failure, continue), or retry (bounded "
             "re-attempts, then skip); see docs/robustness.md",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Sparsepipe reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads / matrices / experiments")

    p_exp = sub.add_parser("experiment", help="run experiment drivers")
    p_exp.add_argument("ids", nargs="+",
                       help=f"experiment ids ({', '.join(_EXPERIMENTS)}, or 'all')")
    _add_context_flags(p_exp)

    p_sim = sub.add_parser("simulate", help="simulate one (workload, matrix)")
    p_sim.add_argument("-w", "--workload", required=True)
    p_sim.add_argument("-m", "--matrix", required=True)
    p_sim.add_argument("-a", "--arch", nargs="+", default=list(arch_names()))
    _add_context_flags(p_sim)

    p_an = sub.add_parser("analyze", help="Table-I analysis of a MatrixMarket file")
    p_an.add_argument("path")
    p_an.add_argument(
        "--strict", action="store_true",
        help="strict ingest: also reject out-of-bounds indices, "
             "trailing tokens, duplicate coordinates, non-finite values",
    )

    sub.add_parser("footprint", help="Table I over the built-in suite")

    p_lint = sub.add_parser(
        "lint", help="static verifier + schedule linter over workloads"
    )
    p_lint.add_argument(
        "workloads", nargs="*",
        help="workload names (default: every registered workload)",
    )
    _add_diag_flags(p_lint)

    p_self = sub.add_parser(
        "selfcheck", help="AST self-lint of the library source"
    )
    _add_diag_flags(p_self)

    p_chk = sub.add_parser(
        "check",
        help="absint oracle: static bounds and OEI legality vs the simulator",
    )
    p_chk.add_argument(
        "workloads", nargs="*",
        help="workload names (default: every registered workload)",
    )
    p_chk.add_argument("-m", "--matrix", default="gy",
                       help="suite matrix name (default: gy)")
    p_chk.add_argument(
        "--backend", choices=("both", "vectorized", "reference"),
        default="both",
        help="simulator backend(s) to cross-check (default: both)",
    )
    p_chk.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
    _add_context_flags(p_chk)

    p_tr = sub.add_parser(
        "trace", help="export a Chrome/Perfetto trace of one simulated run"
    )
    p_tr.add_argument("workload", help="workload name (see 'list')")
    p_tr.add_argument("-m", "--matrix", default="gy",
                      help="suite matrix name (default: gy)")
    p_tr.add_argument("-a", "--arch", default="sparsepipe",
                      help="observable architecture (default: sparsepipe)")
    p_tr.add_argument("-o", "--out", default="trace.json", metavar="PATH",
                      help="output trace path (default: trace.json)")
    p_tr.add_argument("--seed", type=int, default=0,
                      help="seed recorded in the run manifest")

    p_sw = sub.add_parser(
        "sweep", help="supervised sweep over explicit points"
    )
    p_sw.add_argument("points", nargs="+", metavar="ARCH/WORKLOAD/MATRIX",
                      help="e.g. sparsepipe/pr/gy")
    p_sw.add_argument("--metrics", action="store_true",
                      help="print the sweep-wide metrics registry too")
    _add_context_flags(p_sw)

    p_at = sub.add_parser(
        "autotune", help="explore sub-tensor widths (Section IV-F)"
    )
    p_at.add_argument("-w", "--workload", required=True)
    p_at.add_argument("-m", "--matrix", required=True)
    p_at.add_argument("-a", "--arch", default="sparsepipe",
                      help="architecture to tune (default: sparsepipe)")
    p_at.add_argument("--candidates", default=None, metavar="W1,W2,...",
                      help="comma-separated candidate widths "
                           "(default: 32,64,128,256,512)")
    p_at.add_argument("--probe-iterations", type=int, default=2,
                      dest="probe_iterations",
                      help="iterations charged per candidate probe "
                           "(default: 2)")
    _add_context_flags(p_at)

    p_sum = sub.add_parser(
        "summary", help="all Section VI headline claims, paper vs measured"
    )
    _add_context_flags(p_sum)

    p_ex = sub.add_parser("export", help="run everything and write results as JSON")
    p_ex.add_argument("path", help="output JSON path")
    _add_context_flags(p_ex)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "footprint": _cmd_footprint,
        "lint": _cmd_lint,
        "selfcheck": _cmd_selfcheck,
        "check": _cmd_check,
        "trace": _cmd_trace,
        "sweep": _cmd_sweep,
        "autotune": _cmd_autotune,
        "summary": _cmd_summary,
        "export": _cmd_export,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
