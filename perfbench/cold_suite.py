"""cold_suite: in-process ``analyze()`` plus report rendering over the
19 Rodinia programs.

One caller, closed loop, no store, serial fold.  Every pass analyzes
each program once, in an order drawn from the seed, and renders its
report document; every report is checked against the committed
reference-engine digest.  Nearly all of the time goes to the ``isa``,
``cfg``, ``ddg``, ``folding`` and ``schedule`` layers, and the workload
never touches ``store``, ``incr`` or ``service``.

The traced run replaces ``analyze()`` with the same pipeline composed
from its public stage functions, each call timed from here:
``profile_control`` (cfg), ``profile_ddg`` feeding a timing proxy
around the folding sink (folding.add), ``finalize``, the three schedule
passes, and the report render.  Two side measurements split the
instrumented stage-2 execution: a native ``run_program`` (isa) and a
``profile_ddg`` into a discarding sink (ddg = that minus native).  The
composed path yields report bytes identical to ``analyze()``'s (the
self-test asserts it), so the decomposition measures the same program.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Tuple

from repro.ddg import DDGSink
from repro.feedback.jsonout import render_json, report_document
from repro.feedback.stride import stride_scores
from repro.folding import FastFoldingSink
from repro.isa import run_program
from repro.obs import Tracer
from repro.pipeline import (
    AnalysisResult,
    ProgramSpec,
    analyze,
    profile_control,
    profile_ddg,
)
from repro.schedule import analyze_forest, build_nest_forest, plan_all
from repro.workloads import rodinia_workloads

from common import (
    Ledger,
    Outcome,
    Samples,
    load_oracle,
    median_import_seconds,
    peak_rss_mb_self,
    report_bytes_digest,
    trace_overhead,
    write_trace,
)

perf = time.perf_counter


class TimingSink(DDGSink):
    """Proxy around a folding sink: forwards every call, accumulating
    the seconds spent inside the sink and the points delivered."""

    def __init__(self, inner: DDGSink) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.instr_count = 0
        self.dep_count = 0

    def declare_statement(self, stmt) -> None:
        t0 = perf()
        self.inner.declare_statement(stmt)
        self.seconds += perf() - t0

    def instr_point(self, key, coords, label) -> None:
        t0 = perf()
        self.inner.instr_point(key, coords, label)
        self.seconds += perf() - t0
        self.instr_count += 1

    def dep_point(self, dep, dst_coords, src_coords) -> None:
        t0 = perf()
        self.inner.dep_point(dep, dst_coords, src_coords)
        self.seconds += perf() - t0
        self.dep_count += 1

    def instr_points(self, coords, items) -> None:
        t0 = perf()
        self.inner.instr_points(coords, items)
        self.seconds += perf() - t0
        self.instr_count += len(items)

    def dep_points(self, dst_coords, items) -> None:
        t0 = perf()
        self.inner.dep_points(dst_coords, items)
        self.seconds += perf() - t0
        self.dep_count += len(items)


class DiscardSink(DDGSink):
    """Accepts the point streams and drops them: stage 2 without folding."""

    def instr_points(self, coords, items) -> None:
        pass

    def dep_points(self, dst_coords, items) -> None:
        pass


def analyze_and_render(spec: ProgramSpec) -> bytes:
    """The untraced request: ``analyze()`` plus the report document."""
    return render_json(report_document(analyze(spec))).encode("utf-8")


def composed(spec: ProgramSpec, tracer: Tracer) -> Tuple[bytes, dict]:
    """``analyze(spec)`` rebuilt from its stage functions, each timed
    under a span of ``tracer``.  Returns (report bytes, ledger record)."""
    t0 = perf()
    with tracer.span("cfg.profile_control", cat="layer") as s_cfg:
        control = profile_control(spec, tracer=tracer)
    proxy = TimingSink(FastFoldingSink(max_pieces=6, clamp=None))
    with tracer.span("ddg.profile_ddg", cat="layer") as s_ddg:
        ddgp = profile_ddg(spec, control, sink=proxy, tracer=tracer)
    s_ddg.count("fold_add_us", int(proxy.seconds * 1e6))
    with tracer.span("folding.finalize", cat="layer") as s_fin:
        folded = proxy.inner.finalize(tracer=tracer)
    with tracer.span("schedule.forest", cat="layer") as s_forest:
        forest = build_nest_forest(folded)
    with tracer.span("schedule.analysis", cat="layer") as s_analysis:
        analyze_forest(forest)
    with tracer.span("schedule.plan", cat="layer") as s_plan:
        plans = plan_all(forest, stride_scores_of=stride_scores)
    result = AnalysisResult(
        spec=spec,
        control=control,
        ddg_profile=ddgp,
        folded=folded,
        forest=forest,
        plans=plans,
    )
    with tracer.span("feedback.report", cat="layer") as s_report:
        raw = render_json(report_document(result)).encode("utf-8")
    total = perf() - t0

    # side measurements on the now-compiled program, off the pass clock
    args, memory = spec.make_state()
    with tracer.span("side.isa.run_program", cat="side") as s_isa:
        run_program(spec.program, args=args, memory=memory)
    with tracer.span("side.ddg.discard", cat="side") as s_discard:
        profile_ddg(spec, control, sink=DiscardSink(), tracer=tracer)
    record = {
        "total": total,
        "parts": {
            "cfg.stage1_ms": s_cfg.duration,
            "isa.exec_ms": s_isa.duration,
            "ddg.build_ms": max(s_discard.duration - s_isa.duration, 0.0),
            "folding.add_ms": proxy.seconds,
            "folding.finalize_ms": s_fin.duration,
            "schedule.forest_ms": s_forest.duration,
            "schedule.analysis_ms": s_analysis.duration,
            "schedule.plan_ms": s_plan.duration,
            "feedback.report_ms": s_report.duration,
        },
        "nested": {"ddg.stage2_ms": s_ddg.duration},
        "counts": {
            "isa.dyn_instrs": ddgp.stats.dyn_instrs,
            "ddg.instr_points": proxy.instr_count,
            "ddg.dep_points": proxy.dep_count,
            "folding.stmts": folded.stmt_count(),
            "folding.deps": len(folded.deps),
        },
    }
    return raw, record


class Suite:
    """The 19 programs, the oracle, and the pass loop."""

    def __init__(self, seed: int) -> None:
        self.factories: Dict[str, Callable[[], ProgramSpec]] = (
            rodinia_workloads()
        )
        self.oracle = load_oracle()
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, raw: bytes) -> None:
        if report_bytes_digest(raw) != self.oracle[name]:
            self.failed += 1

    def one_pass(self, samples: Samples, ledger=None, tracer=None) -> None:
        """Analyze every program once in a seeded order, each followed
        by a host-speed probe.  With a ``ledger`` the composed, timed
        path runs instead of ``analyze()``; its side measurements are
        off the request clock."""
        order = self.rng.sample(sorted(self.factories), len(self.factories))
        specs = {name: self.factories[name]() for name in order}
        for name in order:
            self.attempted += 1
            try:
                if ledger is None:
                    t0 = perf()
                    raw = analyze_and_render(specs[name])
                    samples.add(name, perf() - t0)
                else:
                    with tracer.span("request", cat="bench", program=name):
                        raw, rec = composed(specs[name], tracer)
                    samples.add(name, rec["total"])
                    ledger.add(
                        rec["total"], rec["parts"], rec["counts"],
                        rec["nested"],
                    )
            except Exception:
                self.failed += 1
                continue
            samples.probe()
            self.check(name, raw)

    def loop(self, seconds: float, ledger=None, tracer=None) -> Samples:
        """Whole passes until ``seconds`` have elapsed (at least one)."""
        samples = Samples()
        t0 = perf()
        while True:
            self.one_pass(samples, ledger, tracer)
            if perf() - t0 >= seconds:
                break
        return samples


def run_cold_suite(seed: int, seconds: float, trace: bool) -> Outcome:
    suite = Suite(seed)
    t0 = perf()
    warm = Samples()
    suite.one_pass(warm)  # warm-up pass: also proves the oracle loads
    setup_s = median_import_seconds() + (perf() - t0)

    if not trace:
        samples = suite.loop(seconds)
        metrics = samples.end_to_end(setup_s, peak_rss_mb_self())
        lines = [f"cold_suite: {samples.summary()}"]
        return Outcome(metrics, suite.attempted, suite.failed, lines)

    plain = suite.loop(seconds / 2)
    tracer = Tracer()
    ledger = Ledger("program")
    with tracer.span("cold_suite.traced", cat="bench"):
        traced = suite.loop(seconds / 2, ledger, tracer)
    path = write_trace(tracer, "cold_suite", seed)
    metrics = ledger.metrics(traced.speed())
    metrics.update(plain.per_program())
    metrics["obs.trace_overhead"] = trace_overhead(plain, traced)
    lines = [
        f"cold_suite traced: untraced {plain.summary()}; "
        f"traced {traced.summary()}",
        ledger.table(),
        f"span forest written to {path}",
    ]
    return Outcome(metrics, suite.attempted, suite.failed, lines)
