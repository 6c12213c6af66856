"""edit_loop: incremental re-analysis of program edits, in process.

Set-up analyzes the 18 multi-function Rodinia programs into an artifact
store; those analyses are the baselines.  Then one caller runs a closed
loop of rounds.  A round visits every program once, in a seeded order,
and re-analyzes one fresh edit of it with ``analyze(store=,
baseline=)``.  A program's edits alternate between ``renumbered_spec``
twins (served without execution) and ``edited_spec`` one-function body
edits (the frontier is re-instrumented), and its body edits cycle
through its non-main functions; the seed picks where each program
starts.  Every seed thus does the same mix of work in a run, in another
order.  Every edit is a distinct program (a new uid offset or
dead-constant value), so none is a plain warm hit.
This is the only workload through ``incr`` diff, slice, stitch and
region I/O, with mixed store reads and writes.

Correctness: a renumbered twin must report exactly what the unedited
program does, so it is checked against the committed reference digest.
A body edit is checked against a store-less cold analysis of the same
edited program; edits of one function differ only in the dead
constant's value, which no report shows, so one cold analysis per
edited function serves them all (the self-test checks that claim).
The cold analyses run after the measurement window.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.feedback.jsonout import render_json, report_document
from repro.incr import edited_spec, renumbered_spec
from repro.isa import fingerprint_program
from repro.obs import Tracer
from repro.pipeline import ProgramSpec, analyze
from repro.store import ArtifactStore
from repro.workloads import rodinia_workloads

from common import (
    WORK,
    Ledger,
    Outcome,
    Samples,
    load_oracle,
    median,
    metric_name,
    median_import_seconds,
    peak_rss_mb_self,
    report_bytes_digest,
    span_seconds,
    trace_overhead,
    write_trace,
)

perf = time.perf_counter

#: analyze() span names -> ledger parts of one edit re-analysis
EDIT_SPANS = {
    "store.load_ms": ("stage1.load", "stage1.load_base", "stage2.load"),
    "cfg.stage1_ms": ("stage1.execute", "stage1.forests", "stage1.rcs"),
    "ddg.stage2_ms": ("stage2.build_setup", "stage2.execute"),
    "folding.finalize_ms": ("fold.finalize",),
    "incr.stitch_ms": ("incr.stitch",),
    "schedule.forest_ms": ("feedback.forest",),
    "schedule.analysis_ms": ("feedback.analysis",),
    "schedule.plan_ms": ("feedback.plan",),
    "store.put_ms": ("stage1.put", "stage2.put", "incr.put"),
}


class EditLoop:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.oracle = load_oracle()
        workloads = rodinia_workloads()
        programs = {name: f().program for name, f in workloads.items()}
        self.factories = {
            name: workloads[name]
            for name, program in programs.items()
            if len(program.functions) > 1
        }
        self.store = ArtifactStore(str(WORK / "edit_loop-store"))
        self.baselines: Dict[str, str] = {}
        #: program -> the non-main functions its body edits touch
        self.funcs = {
            name: sorted(
                fn for fn in programs[name].functions
                if fn != programs[name].main
            )
            for name in sorted(self.factories)
        }
        #: program -> its edit counter: even turns renumber, odd turns
        #: edit the body of function (turn // 2) mod the function count
        self.turn = {
            name: self.rng.randrange(2 * len(funcs))
            for name, funcs in self.funcs.items()
        }
        self.edits = 0
        self.attempted = 0
        self.failed = 0
        #: (program, kind, function) -> (first edit number, report
        #: digests still to be checked)
        self.pending: Dict[Tuple[str, str, str], Tuple[int, List[str]]] = {}

    def build_baselines(self) -> None:
        for name, factory in self.factories.items():
            spec = factory()
            analyze(spec, store=self.store)
            self.baselines[name] = fingerprint_program(spec.program)

    def make_edit(
        self, name: str, kind: str, number: int, func: str
    ) -> ProgramSpec:
        """Edit ``number`` of program ``name``: a distinct program for
        every number."""
        spec = self.factories[name]()
        if kind == "renumber":
            return renumbered_spec(spec, offset=1000 * number)
        return edited_spec(spec, func, value=10 + number)

    def next_edit(self, name: str) -> Tuple[str, str]:
        """(kind, function) of the program's next edit."""
        turn = self.turn[name]
        self.turn[name] += 1
        if turn % 2 == 0:
            return "renumber", ""
        funcs = self.funcs[name]
        return "body", funcs[(turn // 2) % len(funcs)]

    def one_round(self, samples: Samples, ledger=None, tracer=None) -> None:
        edits = []
        for name in self.rng.sample(sorted(self.factories), len(self.factories)):
            kind, func = self.next_edit(name)
            self.edits += 1
            number = self.edits
            edits.append(
                (name, kind, func, number, self.make_edit(name, kind, number, func))
            )
        tracer = tracer or Tracer(enabled=False)
        for name, kind, func, number, spec in edits:
            self.attempted += 1
            stats0 = self.store.stats.as_dict()
            try:
                with tracer.span(
                    "request", cat="bench", program=name, edit=kind
                ) as request:
                    t0 = perf()
                    result = analyze(
                        spec,
                        store=self.store,
                        baseline=self.baselines[name],
                        tracer=tracer if ledger is not None else None,
                    )
                    t_render = perf()
                    raw = render_json(report_document(result)).encode("utf-8")
                    t1 = perf()
            except Exception:
                self.failed += 1
                continue
            samples.add(f"{name}/{kind}", t1 - t0)
            self.pending.setdefault((name, kind, func), (number, []))[1].append(
                report_bytes_digest(raw)
            )
            if ledger is not None:
                self._record(
                    ledger, request.children[0], result, stats0,
                    t1 - t0, t1 - t_render,
                )
            samples.probe()

    def _record(self, ledger, root, result, stats0, total, render_s) -> None:
        """One ledger record from the ``analyze`` span of an edit."""
        instr1 = root.find("instr1")
        parts = {
            "incr.plan_ms": instr1.t0 - root.t0 if instr1 else 0.0,
        }
        for metric, names in EDIT_SPANS.items():
            parts[metric] = span_seconds([root], names)
        parts["feedback.report_ms"] = render_s
        info = result.incremental
        stats1 = self.store.stats.as_dict()
        counts = {
            "incr.regions_reused": info.regions_reused,
            "incr.identical": int(info.mode == "identical"),
            "incr.incremental": int(info.mode == "incremental"),
            "incr.cold": int(info.mode == "cold"),
            "incr.fallbacks": int((info.reason or "").startswith("fallback")),
        }
        for field in ("hits", "misses", "puts"):
            counts[f"store.{field}"] = stats1[field] - stats0[field]
        ledger.add(total, parts, counts)

    def loop(self, seconds: float, ledger=None, tracer=None) -> Samples:
        # a round re-analyzes one edit per program, of either kind
        samples = Samples(per_pass=len(self.factories))
        t0 = perf()
        while True:
            self.one_round(samples, ledger, tracer)
            if perf() - t0 >= seconds:
                break
        return samples

    def verify(self) -> None:
        """Check every recorded report digest against its oracle."""
        for (name, kind, func), (number, digests) in sorted(self.pending.items()):
            if kind == "renumber":
                expected = self.oracle[name]
            else:
                cold = analyze(self.make_edit(name, kind, number, func))
                expected = report_bytes_digest(
                    render_json(report_document(cold)).encode("utf-8")
                )
            self.failed += sum(d != expected for d in digests)
        self.pending.clear()


def run_edit_loop(seed: int, seconds: float, trace: bool) -> Outcome:
    loop = EditLoop(seed)
    t0 = perf()
    loop.build_baselines()
    setup_s = median_import_seconds() + (perf() - t0)

    if not trace:
        samples = loop.loop(seconds)
        loop.verify()
        metrics = samples.end_to_end(setup_s, peak_rss_mb_self())
        lines = [f"edit_loop: {samples.summary()}"]
        return Outcome(metrics, loop.attempted, loop.failed, lines)

    plain = loop.loop(seconds / 2)
    tracer = Tracer()
    ledger = Ledger("edit")
    bytes0 = loop.store.total_bytes()
    traced = loop.loop(seconds / 2, ledger, tracer)
    written = loop.store.total_bytes() - bytes0
    loop.verify()
    metrics = ledger.metrics(traced.speed())
    metrics["store.bytes_written"] = written / max(len(ledger.records), 1)
    metrics["obs.trace_overhead"] = trace_overhead(plain, traced)
    metrics.update(_per_program(plain))
    path = write_trace(tracer, "edit_loop", seed)
    lines = [
        f"edit_loop traced: untraced {plain.summary()}; traced "
        f"{traced.summary()}",
        ledger.table(),
        f"span forest written to {path}",
    ]
    return Outcome(metrics, loop.attempted, loop.failed, lines)


def _per_program(samples: Samples) -> Dict[str, float]:
    """Median edit latency per program, both edit kinds pooled."""
    pooled: Dict[str, List[float]] = {}
    for item, xs in samples.by_item.items():
        pooled.setdefault(item.split("/")[0], []).extend(xs)
    return {
        f"prog.{metric_name(name)}_ms": median(xs) * 1e3 * samples.speed()
        for name, xs in pooled.items()
    }
