"""Command-line interface: ``python -m repro <command>``.

Drives the pipeline over the bundled workloads the way a user would
drive POLY-PROF over a binary:

* ``list``                    -- available workloads
* ``report <workload>``       -- full feedback report (nests, plans, AST)
* ``metrics <workload>``      -- the Table 5 row for the workload
* ``flamegraph <workload>``   -- write the annotated flame-graph SVG
* ``trace <workload>``        -- trace the analyzer analyzing: span
  summary, Chrome-trace JSON (``-o``), self-flamegraph (``--flame``)
* ``static <workload>``       -- the static (mini-Polly) baseline view
* ``verify <workload>``       -- verify every suggested plan polyhedrally
* ``regions <workload>``      -- rank candidate regions of interest
* ``lint [workloads...]``     -- static linter over workload programs
* ``suite [workloads...]``    -- analyze many workloads in parallel
* ``sweep <workload>``        -- profile over an input sweep and merge
  the per-run DDGs into a parameterized dependence model
* ``serve``                   -- run the analysis daemon (HTTP API)
* ``route``                   -- consistent-hash router over replicas

Analysis commands take ``--crosscheck`` (run the dynamic-vs-static
soundness sanitizers), ``--fold-jobs N`` (fold the stage-2 streams in
N shard processes, bit-identical to the serial fold; see
:mod:`repro.parallel`), and ``--cache DIR`` / ``--no-cache``
(content-addressed artifact store; the ``REPRO_CACHE_DIR`` environment
variable supplies a default directory).  ``report`` and ``metrics``
take ``--format {text,json}``; the JSON documents carry a top-level
schema ``version`` field and are byte-identical to what the daemon
serves.  ``suite`` additionally
takes ``--jobs``, ``--timeout`` and ``--cache-max-mb`` (LRU size cap
for the shared store).  ``serve`` takes ``--port``, ``--workers``,
``--queue-depth``, ``--job-timeout`` and the cache flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence


def _get_spec(name: str):
    from .workloads import all_workloads

    reg = all_workloads()
    if name not in reg:
        options = ", ".join(sorted(reg))
        raise SystemExit(f"unknown workload {name!r}; available: {options}")
    return reg[name]()


def cmd_list(args) -> int:
    from .workloads import all_workloads, RODINIA_ORDER

    reg = all_workloads()
    print("Rodinia 3.1 suite (paper Table 5):")
    for name in RODINIA_ORDER:
        print(f"  {name:16s} {reg[name]().description}")
    extra = sorted(set(reg) - set(RODINIA_ORDER))
    if extra:
        print("other workloads:")
        for name in extra:
            print(f"  {name:16s} {reg[name]().description}")
    return 0


def _store_from_args(args):
    """The :class:`~repro.store.ArtifactStore` the flags ask for, or None.

    Precedence: ``--no-cache`` wins; then ``--cache DIR``; then the
    ``REPRO_CACHE_DIR`` environment variable.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache", None) or os.environ.get(
        "REPRO_CACHE_DIR"
    )
    if not cache_dir:
        return None
    from .store import ArtifactStore

    max_mb = getattr(args, "cache_max_mb", None)
    return ArtifactStore(
        cache_dir,
        max_bytes=None if max_mb is None else max_mb * 1024 * 1024,
    )


def _cache_dir_from_args(args) -> Optional[str]:
    """Like :func:`_store_from_args` but just the directory (for the
    suite runner, whose workers each open their own handle)."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache", None) or os.environ.get(
        "REPRO_CACHE_DIR"
    ) or None


def _print_incremental(result) -> None:
    """One-line incremental summary on **stderr** -- stdout must stay
    byte-identical to a cold run of the same program."""
    info = result.incremental
    if info is None:
        return
    parts = [f"incremental: mode={info.mode}"]
    if info.mode in ("incremental", "identical"):
        parts.append(
            f"regions reused {info.regions_reused}/{info.funcs_total}"
        )
    if info.frontier:
        parts.append(f"frontier: {', '.join(sorted(info.frontier))}")
    if info.reason:
        parts.append(f"reason: {info.reason}")
    print("  ".join(parts), file=sys.stderr)


def _baseline_of(args) -> Optional[str]:
    """Resolve ``--baseline``: a workload name is fingerprinted; a raw
    64-hex program digest passes through."""
    ref = getattr(args, "baseline", None)
    if not ref:
        return None
    from .workloads import all_workloads

    reg = all_workloads()
    if ref in reg:
        from .isa.fingerprint import fingerprint_program

        return fingerprint_program(reg[ref]().program)
    if len(ref) == 64 and all(c in "0123456789abcdef" for c in ref):
        return ref
    options = ", ".join(sorted(reg))
    raise SystemExit(
        f"--baseline {ref!r} is neither a workload name nor a program "
        f"fingerprint; workloads: {options}"
    )


def _print_crosscheck(result) -> int:
    """Print the crosscheck summary; return the violation count."""
    if result.crosscheck is None:
        return 0
    print(result.crosscheck.render())
    return len(result.crosscheck.violations)


def cmd_report(args) -> int:
    from .feedback import render_report
    from .pipeline import analyze

    spec = _get_spec(args.workload)
    store = _store_from_args(args)
    baseline = _baseline_of(args)
    if baseline is not None and store is None:
        raise SystemExit(
            "--baseline requires an artifact store (--cache DIR or "
            "REPRO_CACHE_DIR)"
        )
    result = analyze(
        spec, crosscheck=args.crosscheck,
        store=store, fold_jobs=args.fold_jobs, baseline=baseline,
    )
    _print_incremental(result)
    bad = result.crosscheck is not None and result.crosscheck.violations
    if args.format == "json":
        from .feedback.jsonout import render_json, report_document

        sys.stdout.write(render_json(report_document(result)))
        return 1 if bad else 0
    print(
        f"{spec.name}: {result.ddg_profile.builder.instr_count} dynamic "
        f"instructions, {result.folded.stmt_count()} folded statements, "
        f"{len(result.folded.deps)} dependence relations"
    )
    print(render_report(result.forest, result.plans,
                        title=f"poly-prof feedback: {spec.name}"))
    return 1 if _print_crosscheck(result) else 0


def cmd_metrics(args) -> int:
    from .feedback import compute_region_metrics
    from .pipeline import analyze

    spec = _get_spec(args.workload)
    store = _store_from_args(args)
    baseline = _baseline_of(args)
    if baseline is not None and store is None:
        raise SystemExit(
            "--baseline requires an artifact store (--cache DIR or "
            "REPRO_CACHE_DIR)"
        )
    result = analyze(
        spec, crosscheck=args.crosscheck,
        store=store, fold_jobs=args.fold_jobs, baseline=baseline,
    )
    _print_incremental(result)
    if args.format == "json":
        from .feedback.jsonout import metrics_document, render_json

        sys.stdout.write(render_json(metrics_document(result)))
        bad = result.crosscheck is not None and result.crosscheck.violations
        return 1 if bad else 0
    m = compute_region_metrics(
        result.folded,
        result.forest,
        result.control.callgraph,
        region_funcs=spec.region_funcs,
        label=spec.region_label or spec.name,
        ld_src=spec.ld_src,
        fusion_heuristic=spec.fusion_heuristic,
    )
    for k, v in m.row().items():
        print(f"  {k:12s} {v}")
    return 1 if _print_crosscheck(result) else 0


def cmd_flamegraph(args) -> int:
    from .feedback import render_flamegraph_svg
    from .pipeline import analyze

    spec = _get_spec(args.workload)
    result = analyze(spec, store=_store_from_args(args))
    svg = render_flamegraph_svg(
        result.schedule_tree,
        title=f"poly-prof annotated flame graph: {spec.name}",
    )
    out = args.output or f"{spec.name}_flamegraph.svg"
    with open(out, "w") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


def cmd_trace(args) -> int:
    """Trace the analyzer analyzing: span summary to stdout, plus
    optional Chrome-trace JSON (``-o``) and self-flamegraph
    (``--flame``) artifacts."""
    from .obs import (
        TraceObserver,
        Tracer,
        render_self_flamegraph,
        render_span_text,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .pipeline import analyze

    spec = _get_spec(args.workload)
    store = _store_from_args(args)
    baseline = _baseline_of(args)
    if baseline is not None and store is None:
        raise SystemExit(
            "--baseline requires an artifact store (--cache DIR or "
            "REPRO_CACHE_DIR)"
        )
    from .obs.context import new_trace_context

    # the CLI is a trace front door: mint the request identity here so
    # exported spans carry trace/span ids like service-run ones do
    tracer = Tracer(memory=args.mem, context=new_trace_context())
    observer = TraceObserver(tracer)
    try:
        result = analyze(
            spec,
            store=store,
            tracer=tracer,
            extra_observers=[observer],
            fold_jobs=args.fold_jobs,
            baseline=baseline,
        )
        _print_incremental(result)
        if args.format == "json":
            from .feedback.jsonout import render_json, trace_document

            sys.stdout.write(
                render_json(trace_document(result, spans=tracer.roots))
            )
        else:
            print(f"span tree for {spec.name}:")
            print(render_span_text(tracer.roots))
        if args.output:
            doc = write_chrome_trace(
                args.output, tracer.roots, workload=spec.name
            )
            events = validate_chrome_trace(doc)
            print(
                f"wrote {args.output} ({events} events; load it at "
                "https://ui.perfetto.dev or chrome://tracing)"
            )
        if args.flame is not None:
            out = args.flame or f"{spec.name}_selfflame.svg"
            svg = render_self_flamegraph(
                tracer.roots,
                title=f"poly-prof tracing itself: {spec.name}",
            )
            with open(out, "w") as fh:
                fh.write(svg)
            print(f"wrote {out}")
    finally:
        tracer.close()
    return 0


def cmd_static(args) -> int:
    from .staticpoly import analyze_static

    spec = _get_spec(args.workload)
    report = analyze_static(spec.program, spec.region_funcs)
    print(f"region: {', '.join(report.region)}")
    print(f"whole region modelable: {report.whole_region_modelable}")
    if report.reasons:
        print(f"failure reasons: {report.reasons} "
              "(R=call C=cfg B=bounds F=access A=alias P=base-ptr)")
    for nest in report.nests:
        verdict = "ok" if nest.modelable else nest.reasons
        print(f"  {nest.func}/{nest.header} ({nest.depth}D): {verdict}")
    return 0


def cmd_regions(args) -> int:
    from .feedback import suggest_regions
    from .pipeline import analyze

    spec = _get_spec(args.workload)
    store = _store_from_args(args)
    baseline = _baseline_of(args)
    if baseline is not None and store is None:
        raise SystemExit(
            "--baseline requires an artifact store (--cache DIR or "
            "REPRO_CACHE_DIR)"
        )
    result = analyze(
        spec, crosscheck=args.crosscheck,
        store=store, fold_jobs=args.fold_jobs, baseline=baseline,
    )
    _print_incremental(result)
    total = result.folded.dyn_ops() or 1
    print("candidate regions (best first):")
    for cand in suggest_regions(result, top=8):
        print(
            f"  {cand.root_func:24s} ops {100 * cand.ops // total:3d}%  "
            f"transformable {100 * cand.transformable_ops // total:3d}%  "
            f"funcs: {', '.join(cand.funcs)}"
        )
    return 1 if _print_crosscheck(result) else 0


def cmd_verify(args) -> int:
    from .pipeline import analyze
    from .schedule import verify_plan

    spec = _get_spec(args.workload)
    store = _store_from_args(args)
    baseline = _baseline_of(args)
    if baseline is not None and store is None:
        raise SystemExit(
            "--baseline requires an artifact store (--cache DIR or "
            "REPRO_CACHE_DIR)"
        )
    result = analyze(
        spec, crosscheck=args.crosscheck,
        store=store, fold_jobs=args.fold_jobs, baseline=baseline,
    )
    _print_incremental(result)
    bad = 0
    for plan in result.plans:
        if not plan.steps:
            continue
        res = verify_plan(result.forest, plan)
        status = "LEGAL" if res.legal else "VIOLATED"
        nest = " / ".join(p[-1] for p in plan.leaf.path)
        print(f"  {nest}: {status} "
              f"({res.checked} deps checked, {res.skipped} conservative)")
        if not res.legal:
            bad += 1
            for v in res.violations[:3]:
                print(f"    {v}")
    print("all plans verified" if bad == 0 else f"{bad} plans VIOLATED")
    if _print_crosscheck(result):
        return 1
    return 0 if bad == 0 else 1


def cmd_lint(args) -> int:
    import json

    from .dataflow import lint_program
    from .workloads import all_workloads

    reg = all_workloads()
    names = args.workloads or sorted(reg)
    bad = 0
    reports = []
    for name in names:
        if name not in reg:
            options = ", ".join(sorted(reg))
            raise SystemExit(
                f"unknown workload {name!r}; available: {options}"
            )
        spec = reg[name]()
        report = lint_program(spec.program)
        report.program = spec.name
        reports.append(report)
        if not report.clean:
            bad += 1
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            if report.diagnostics or args.verbose:
                print(report.render())
        clean = len(reports) - bad
        print(f"{clean}/{len(reports)} workload program(s) lint clean")
    return 0 if bad == 0 else 1


def cmd_diff(args) -> int:
    """Static diff of two program versions + the sliced frontier."""
    import json

    from .incr import (
        append_sink_instr,
        build_manifest,
        compute_frontier,
        diff_document,
        diff_manifests,
    )

    base_spec = _get_spec(args.baseline)
    new_spec = _get_spec(args.workload)
    new_program = new_spec.program
    if args.edit:
        if args.edit not in new_program.functions:
            options = ", ".join(sorted(new_program.functions))
            raise SystemExit(
                f"--edit {args.edit!r}: no such function; "
                f"available: {options}"
            )
        new_program = append_sink_instr(new_program, args.edit)
    base_manifest = build_manifest(base_spec.program)
    new_manifest = build_manifest(new_program)
    diff = diff_manifests(base_manifest, new_manifest)
    frontier = compute_frontier(new_program, diff, base_manifest)
    if args.format == "json":
        doc = diff_document(
            diff,
            frontier=frontier,
            baseline_name=base_spec.name,
            program_name=new_spec.name,
        )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"diff {base_spec.name} ({diff.baseline_digest[:12]}) -> "
        f"{new_spec.name} ({diff.program_digest[:12]})"
    )
    summary = diff.summary()
    print(
        "  "
        + "  ".join(f"{k}: {v}" for k, v in summary.items() if v)
    )
    for name in sorted(diff.functions):
        st = diff.functions[name]
        if st.status == "unchanged" and st.subtree_clean:
            continue
        line = f"  {name:24s} {st.status}"
        if st.blocks_changed:
            line += f"  blocks: {', '.join(st.blocks_changed)}"
        if st.renamed_from:
            line += f"  (renamed from {st.renamed_from})"
        if st.renamed_to:
            line += f"  (renamed to {st.renamed_to})"
        if st.status == "unchanged" and not st.subtree_clean:
            line += "  (callee subtree changed)"
        print(line)
    if frontier.funcs:
        print("re-analysis frontier:")
        for name in sorted(frontier.funcs):
            reasons = frontier.reasons.get(name, [])
            why = "; ".join(
                r.rule + (f" via {r.via}" if r.via else "")
                for r in reasons[:3]
            )
            print(f"  {name:24s} {why}")
    else:
        print("re-analysis frontier: empty (all regions reusable)")
    return 0


def cmd_serve(args) -> int:
    from .service import ServiceConfig, serve

    max_mb = getattr(args, "cache_max_mb", None)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=_cache_dir_from_args(args),
        cache_max_bytes=None if max_mb is None else max_mb * 1024 * 1024,
        default_timeout=args.job_timeout,
        drain_grace=args.drain_grace,
        retain_jobs=args.retain_jobs,
        max_fold_jobs=args.max_fold_jobs,
        execution=args.execution,
        replica_id=args.replica_id,
    )
    return serve(config)


def cmd_route(args) -> int:
    from .service.router import RouterConfig, route

    config = RouterConfig(
        host=args.host,
        port=args.port,
        replicas=args.replica,
        vnodes=args.vnodes,
        health_interval=args.health_interval,
    )
    return route(config)


def cmd_suite(args) -> int:
    from .runner import render_suite_table, run_suite
    from .workloads import RODINIA_ORDER

    names = args.workloads or list(RODINIA_ORDER)
    max_mb = getattr(args, "cache_max_mb", None)
    results = run_suite(
        names,
        jobs=args.jobs,
        timeout=args.timeout,
        clamp=args.clamp,
        crosscheck=args.crosscheck,
        cache_dir=_cache_dir_from_args(args),
        cache_max_bytes=None if max_mb is None else max_mb * 1024 * 1024,
        fold_jobs=args.fold_jobs,
    )
    print(render_suite_table(results))
    if not all(r.ok for r in results):
        return 1
    if any(r.soundness_violations for r in results):
        return 1
    return 0


def cmd_sweep(args) -> int:
    from .obs import Tracer
    from .sweep import (
        render_sweep_text,
        run_sweep,
        sweep_document,
    )
    from .sweep.driver import SweepError
    from .sweep.grid import GridError, parse_point

    points = None
    if args.point:
        try:
            points = [parse_point(text) for text in args.point]
        except GridError as exc:
            raise SystemExit(str(exc))
    max_mb = getattr(args, "cache_max_mb", None)
    from .obs.context import new_trace_context

    tracer = Tracer(context=new_trace_context())
    try:
        with tracer.span("sweep", cat="sweep", workload=args.workload):
            result = run_sweep(
                args.workload,
                points,
                clamp=args.clamp,
                crosscheck=args.crosscheck,
                fold_jobs=args.fold_jobs,
                jobs=args.jobs,
                timeout=args.timeout,
                cache_dir=_cache_dir_from_args(args),
                cache_max_bytes=(
                    None if max_mb is None else max_mb * 1024 * 1024
                ),
                tracer=tracer,
            )
    except (SweepError, GridError) as exc:
        raise SystemExit(str(exc))
    finally:
        tracer.close()
    if args.format == "json":
        from .feedback.jsonout import render_json

        sys.stdout.write(render_json(sweep_document(result)))
        return 0
    print(render_sweep_text(result))
    return 0


def _add_cache_args(p) -> None:
    p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed artifact store directory; warm "
        "re-analyses skip both profiled executions (default: "
        "$REPRO_CACHE_DIR when set)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact store even if REPRO_CACHE_DIR is set",
    )


def _add_fold_jobs_arg(p) -> None:
    p.add_argument(
        "--fold-jobs",
        type=int,
        default=1,
        metavar="N",
        help="fold the stage-2 point streams in N shard worker "
        "processes (bit-identical to the serial fold; 1 = in-process)",
    )


def _add_baseline_arg(p) -> None:
    p.add_argument(
        "--baseline",
        metavar="REF",
        default=None,
        help="incremental re-analysis against this baseline: a "
        "workload name or a 64-hex program fingerprint whose manifest "
        "and region artifacts are in the store; only the invalidated "
        "frontier is re-instrumented (requires --cache); output stays "
        "byte-identical to a cold run, the incremental summary goes "
        "to stderr",
    )


def _add_crosscheck_arg(p) -> None:
    p.add_argument(
        "--crosscheck",
        action="store_true",
        help="run the dynamic-vs-static soundness sanitizers "
        "(independent recount, dependence-shape, affine "
        "agreement, parallel-claim verification)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="poly-prof reproduction: dependence profiling for "
        "structured transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available workloads")
    for name, help_ in (
        ("report", "full feedback report"),
        ("metrics", "Table 5 metrics row"),
        ("verify", "verify suggested plans polyhedrally"),
        ("regions", "rank candidate regions of interest"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("workload")
        _add_crosscheck_arg(p)
        _add_fold_jobs_arg(p)
        _add_cache_args(p)
        _add_baseline_arg(p)
        if name in ("report", "metrics"):
            p.add_argument(
                "--format",
                choices=("text", "json"),
                default="text",
                help="output format; json documents carry a schema "
                "'version' field and match the analysis service "
                "byte-for-byte",
            )
    p = sub.add_parser("static", help="static (mini-Polly) baseline")
    p.add_argument("workload")
    p = sub.add_parser(
        "lint", help="static linter over workload programs"
    )
    p.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: every registered workload)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format",
    )
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print per-workload summaries with no findings",
    )
    p = sub.add_parser("flamegraph", help="write annotated flame-graph SVG")
    p.add_argument("workload")
    p.add_argument("-o", "--output", default=None)
    _add_cache_args(p)
    p = sub.add_parser(
        "trace", help="trace the analyzer analyzing a workload"
    )
    p.add_argument("workload")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write Chrome trace-event JSON (loads in Perfetto / "
        "chrome://tracing)",
    )
    p.add_argument(
        "--flame",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write the analyzer's own span tree as a flame-graph SVG "
        "(default file: <workload>_selfflame.svg)",
    )
    p.add_argument(
        "--mem",
        action="store_true",
        help="also sample tracemalloc at span boundaries (slower)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format: indented span tree (text) or the "
        "versioned trace document (json)",
    )
    _add_fold_jobs_arg(p)
    _add_cache_args(p)
    _add_baseline_arg(p)
    p = sub.add_parser(
        "diff",
        help="statically diff two program versions and show the "
        "re-analysis frontier",
    )
    p.add_argument("baseline", help="baseline workload name")
    p.add_argument("workload", help="new/edited workload name")
    p.add_argument(
        "--edit",
        metavar="FUNC",
        default=None,
        help="apply the canonical one-function body edit (a dead "
        "const appended to FUNC's entry block) to the new side "
        "before diffing -- exercises the frontier on a single "
        "workload",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human summary (text) or the versioned diff document "
        "with per-function status and frontier reasons (json)",
    )
    p = sub.add_parser(
        "suite", help="analyze many workloads in parallel"
    )
    p.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: the whole Rodinia suite)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = inline)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-workload wall-clock limit in seconds",
    )
    p.add_argument(
        "--clamp",
        type=int,
        default=None,
        help="per-stream folding point clamp",
    )
    _add_crosscheck_arg(p)
    _add_fold_jobs_arg(p)
    _add_cache_args(p)
    p.add_argument(
        "--cache-max-mb",
        type=int,
        default=None,
        metavar="MB",
        help="LRU size cap for the shared artifact store",
    )
    p = sub.add_parser(
        "sweep",
        help="profile one workload over an input sweep and merge the "
        "per-run DDGs into a parameterized dependence model",
    )
    p.add_argument("workload")
    p.add_argument(
        "--point",
        action="append",
        default=[],
        metavar="BINDINGS",
        help="one sweep point as comma-separated name=value bindings "
        "(repeatable; unbound params take their registry defaults; "
        "default: the workload's declared sweep grid)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="warm-phase worker processes (default: CPU count; "
        "1 = no warm phase)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock limit in seconds (warm phase)",
    )
    p.add_argument(
        "--clamp",
        type=int,
        default=None,
        help="per-stream folding point clamp",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; the json sweep document matches the "
        "analysis service byte-for-byte",
    )
    _add_crosscheck_arg(p)
    _add_fold_jobs_arg(p)
    _add_cache_args(p)
    p.add_argument(
        "--cache-max-mb",
        type=int,
        default=None,
        metavar="MB",
        help="LRU size cap for the shared artifact store",
    )
    p = sub.add_parser(
        "serve", help="run the analysis daemon (JSON HTTP API)"
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8123,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    p.add_argument(
        "-w",
        "--workers",
        type=int,
        default=2,
        help="analysis worker threads sharing one artifact store",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="max queued jobs before submissions get 429",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job execution deadline (requests may "
        "override; default: unbounded)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM, seconds to let in-flight jobs finish before "
        "cancelling them",
    )
    p.add_argument(
        "--retain-jobs",
        type=int,
        default=256,
        help="finished jobs kept for polling/dedup before eviction",
    )
    p.add_argument(
        "--max-fold-jobs",
        type=int,
        default=None,
        metavar="N",
        help="cap on per-job fold_jobs requests (default: cpu_count "
        "// workers, so in-flight fold processes never oversubscribe "
        "the host)",
    )
    p.add_argument(
        "--execution",
        choices=("thread", "process"),
        default="thread",
        help="run analyses in worker threads (warm-optimized default) "
        "or long-lived worker processes (cold throughput scales with "
        "cores)",
    )
    p.add_argument(
        "--replica-id",
        default=None,
        metavar="NAME",
        help="identity reported in /healthz and /metrics when this "
        "daemon is one replica behind `repro route`",
    )
    _add_cache_args(p)
    p.add_argument(
        "--cache-max-mb",
        type=int,
        default=None,
        metavar="MB",
        help="LRU size cap for the artifact store",
    )
    p = sub.add_parser(
        "route",
        help="run the consistent-hash router over replica daemons",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8120,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    p.add_argument(
        "--replica",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="replica daemon address; repeat once per ring member",
    )
    p.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual points per replica on the hash ring",
    )
    p.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between replica health probes",
    )

    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "report": cmd_report,
        "metrics": cmd_metrics,
        "flamegraph": cmd_flamegraph,
        "trace": cmd_trace,
        "static": cmd_static,
        "verify": cmd_verify,
        "regions": cmd_regions,
        "diff": cmd_diff,
        "lint": cmd_lint,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
        "route": cmd_route,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
