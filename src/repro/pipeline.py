"""POLY-PROF end-to-end pipeline (paper Fig. 1).

The stages, mirroring the figure:

1. **Instrumentation I** -- run the program once, reconstruct dynamic
   CFGs and the call graph; build loop-nesting forests and the
   recursive-component-set (:mod:`repro.cfg`).
2. **Instrumentation II** -- run again with the DDG builder: loop
   events, dynamic IIVs, shadow memory; stream statement/dependence
   points (:mod:`repro.ddg`).
3. **Folding** -- compress the point streams into a compact polyhedral
   DDG (:mod:`repro.folding`).
4. **Polyhedral feedback** -- dependence analysis, transformation
   search, metrics, reports (:mod:`repro.schedule`,
   :mod:`repro.feedback`).

Because a mini-ISA program consumes its :class:`~repro.isa.Memory`,
workloads are described by a :class:`ProgramSpec` whose ``make_state``
returns a *fresh* (args, memory) pair per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cfg import (
    ControlStructureBuilder,
    DynCallGraph,
    DynCFG,
    LoopForest,
    RecursiveComponentSet,
    build_loop_forest,
    build_recursive_component_set,
)
from .ddg import DDGBuilder, DDGSink, RecordingSink
from .isa import Memory, Program, RunStats, run_program
from .obs import NULL_TRACER, Span, Tracer


@dataclass
class ProgramSpec:
    """A runnable workload: a program plus fresh-state factory.

    The ``region_*`` fields model the paper's hand-selected region of
    interest per benchmark (Table 5): the kernel functions, the label
    printed in the Region column, the fusion heuristic used, and the
    source loop depth (``ld-src``) when it differs from what the
    frontend records (e.g. a compiler unrolled a source loop away).
    """

    name: str
    program: Program
    make_state: Callable[[], Tuple[Sequence, Memory]]

    #: optional human annotations used by reports (not by analysis)
    description: str = ""
    region_funcs: Optional[Tuple[str, ...]] = None
    region_label: str = ""
    fusion_heuristic: str = "S"
    ld_src: Optional[int] = None
    #: emulates the paper's scheduler memory budget (streamcluster
    #: exhausted memory at scheduling); None = unlimited
    scheduler_stmt_budget: Optional[int] = None


@dataclass
class ControlProfile:
    """Result of Instrumentation I."""

    cfgs: Dict[str, DynCFG]
    callgraph: DynCallGraph
    forests: Dict[str, LoopForest]
    rcs: RecursiveComponentSet
    stats: RunStats


@dataclass
class DDGProfile:
    """Result of Instrumentation II."""

    builder: DDGBuilder
    sink: DDGSink
    stats: RunStats


def profile_control(
    spec: ProgramSpec,
    fuel: int = 50_000_000,
    engine: str = "fast",
    extra_observers: Sequence = (),
    tracer: Optional[Tracer] = None,
) -> ControlProfile:
    """Stage 1: reconstruct the interprocedural control structure.

    The instrumented execution alone is the ``stage1.execute`` span of
    ``tracer`` (none is recorded without one).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    args, memory = spec.make_state()
    csb = ControlStructureBuilder()
    with tracer.span("stage1.execute", cat="exec", engine=engine) as sp:
        _, stats = run_program(
            spec.program,
            args=args,
            memory=memory,
            observers=[csb, *extra_observers],
            fuel=fuel,
            engine=engine,
        )
    sp.count("dyn_instrs", stats.dyn_instrs)
    with tracer.span("stage1.forests", cat="build"):
        forests = {
            f: build_loop_forest(f, cfg.nodes, cfg.edges, cfg.entry)
            for f, cfg in csb.cfgs.items()
        }
    with tracer.span("stage1.rcs", cat="build"):
        rcs = build_recursive_component_set(
            csb.callgraph.nodes, csb.callgraph.edges, csb.callgraph.root
        )
    return ControlProfile(
        cfgs=csb.cfgs,
        callgraph=csb.callgraph,
        forests=forests,
        rcs=rcs,
        stats=stats,
    )


def profile_ddg(
    spec: ProgramSpec,
    control: ControlProfile,
    sink: Optional[DDGSink] = None,
    track_anti_output: bool = True,
    build_schedule_tree: bool = True,
    fuel: int = 50_000_000,
    engine: str = "fast",
    extra_observers: Sequence = (),
    tracer: Optional[Tracer] = None,
) -> DDGProfile:
    """Stage 2: build the DDG point streams (fresh execution).

    The instrumented execution with the DDG builder riding along is
    the ``stage2.execute`` span of ``tracer``.  The fast engine's
    builder keeps the dynamic IIV with a jump table; the reference
    engine's runs Algorithms 1-3 on every control event."""
    tracer = tracer if tracer is not None else NULL_TRACER
    args, memory = spec.make_state()
    if sink is None:
        sink = RecordingSink()
    with tracer.span("stage2.build_setup", cat="build"):
        builder = DDGBuilder(
            spec.program,
            control.forests,
            control.rcs,
            sink,
            track_anti_output=track_anti_output,
            build_schedule_tree=build_schedule_tree,
            jump_table=engine == "fast",
        )
    with tracer.span("stage2.execute", cat="exec", engine=engine) as sp:
        _, stats = run_program(
            spec.program,
            args=args,
            memory=memory,
            observers=[builder, *extra_observers],
            fuel=fuel,
            engine=engine,
        )
    sp.count("dyn_instrs", stats.dyn_instrs)
    sp.count("mem_ops", stats.mem_ops)
    return DDGProfile(builder=builder, sink=sink, stats=stats)


@dataclass
class StageTimings:
    """Fresh wall-clock cost of one :func:`analyze` call, per stage,
    cache lookups included.  On a warm hit ``instr1``/``instr2_fold``
    collapse to the artifact-decode time.
    """

    instr1: float = 0.0         # Instrumentation I (or stage-1 load)
    instr2_fold: float = 0.0    # Instrumentation II + folding (or load)
    feedback: float = 0.0       # dep vectors, forest analysis, planning
    stage1_cached: bool = False
    stage2_cached: bool = False

    @classmethod
    def from_span_tree(
        cls,
        root: Span,
        stage1_cached: bool = False,
        stage2_cached: bool = False,
    ) -> "StageTimings":
        """Derive the per-stage split from a finished ``analyze`` root
        span.

        Each stage is the interval from the previous stage's span end
        to its own (the last one runs to the root's end), so the three
        parts include every bit of inter-stage glue and **sum exactly
        to the root's duration** -- unlike the old per-stage
        ``perf_counter`` pairs, which dropped the glue and never summed
        to end-to-end.
        """
        stages = {c.name: c for c in root.children}
        s1 = stages.get("instr1")
        s2 = stages.get("instr2_fold")
        if s1 is None or s2 is None:
            raise ValueError(
                "span tree lacks instr1/instr2_fold stage spans"
            )
        return cls(
            instr1=s1.t1 - root.t0,
            instr2_fold=s2.t1 - s1.t1,
            feedback=root.t1 - s2.t1,
            stage1_cached=stage1_cached,
            stage2_cached=stage2_cached,
        )

    @property
    def cache_hit(self) -> bool:
        """True when every profiled execution was skipped."""
        return self.stage1_cached and self.stage2_cached

    @property
    def total(self) -> float:
        return self.instr1 + self.instr2_fold + self.feedback

    def as_dict(self) -> Dict[str, float]:
        return {
            "instr1": self.instr1,
            "instr2_fold": self.instr2_fold,
            "feedback": self.feedback,
        }


@dataclass
class AnalysisResult:
    """Everything the feedback stages need, bundled."""

    spec: ProgramSpec
    control: ControlProfile
    ddg_profile: DDGProfile
    folded: "FoldedDDG"
    forest: "NestForest"
    plans: List["NestPlan"] = field(default_factory=list)
    #: pipeline settings, recorded so the cross-checker can reproduce
    #: the run (on the opposite engine); ``"fast"`` on every production
    #: path -- only :func:`analyze` itself selects the reference engine
    engine: str = "fast"
    #: soundness report when the run was crosschecked (``--crosscheck``)
    crosscheck: Optional["CrosscheckReport"] = None
    #: fresh per-stage cost of this call (cache-aware; see StageTimings)
    timings: StageTimings = field(default_factory=StageTimings)
    #: root span of this call's trace (every analyze() is traced at
    #: stage granularity; deep traces add execution counters/memory)
    trace: Optional[Span] = None
    #: the baseline diff account when ``analyze(baseline=...)`` was
    #: used (:class:`~repro.incr.IncrementalInfo`); deliberately *not*
    #: part of any report/metrics document, which stay byte-identical
    #: to a cold run
    incremental: Optional["IncrementalInfo"] = None

    @property
    def schedule_tree(self):
        return self.ddg_profile.builder.schedule_tree


def analyze(
    spec: ProgramSpec,
    clamp: Optional[int] = None,
    fuel: int = 50_000_000,
    engine: str = "fast",
    crosscheck: bool = False,
    store: Optional["ArtifactStore"] = None,
    extra_observers: Sequence = (),
    tracer: Optional[Tracer] = None,
    baseline: Optional[str] = None,
) -> AnalysisResult:
    """The full POLY-PROF pipeline: profile, fold, analyze, plan.

    Every analysis tracks anti and output dependences, builds the
    dynamic schedule tree and folds with a budget of 6 pieces per
    stream.  The stage functions still take those settings
    (:func:`profile_ddg`'s ``track_anti_output`` and
    ``build_schedule_tree``, the folding sinks' ``max_pieces``); a
    caller that wants other values composes them, as
    ``benchmarks/bench_ablation.py`` does.

    ``clamp`` bounds the points folded per stream (Fig. 1's relevance
    scalability clamping); clamped streams degrade to conservative
    over-approximations.

    ``engine`` selects the execution/folding path: ``"fast"`` (block
    compilation, batched instrumentation, fast folding backend; the
    one production engine) or ``"reference"`` (the original
    per-instruction interpreter and folder: the executable
    specification the fast engine must reproduce bit for bit).  This
    is the only place an engine is chosen; every layer above runs the
    fast engine.  The reference engine is serial and uncached:
    combining it with ``store`` or ``baseline`` raises
    :class:`ValueError`.

    ``crosscheck`` additionally runs the dynamic-vs-static soundness
    sanitizers (:mod:`repro.dataflow.crosscheck`) over the finished
    result -- including an independent recount of the dependence
    streams on the *other* engine, watched by ``extra_observers`` like
    the profiled executions -- and attaches the report.  The analysis
    artifacts themselves are unaffected.

    ``store`` enables content-addressed caching (:mod:`repro.store`):
    the workload, the fuel and the clamp are fingerprinted, and a
    warm stage-2 hit skips both profiled executions *and* folding
    entirely, leaving only the cheap feedback passes.  A stage-2 miss
    with a stage-1 hit still skips Instrumentation I.  The program is
    keyed by its canonical (uid-free) digest, so a twin -- uids
    shifted or permuted, functions listed in another order -- is a
    warm hit on an analyzed program's artifacts, decoded against its
    own uids.  Cached and fresh runs produce identical results; cache
    state only shows up in ``result.timings``.

    ``extra_observers`` attach additional passive
    :class:`~repro.isa.events.Instrumentation` observers to both
    profiled executions and the crosscheck recount -- the analysis
    service uses this to enforce cooperative per-job
    deadlines/cancellation from worker threads (where ``SIGALRM`` is
    unavailable).  They are deliberately *not* part of the cache key:
    an observer must never change what is computed, only watch it (or
    abort it by raising).

    ``tracer`` collects the hierarchical span tree of this call
    (:mod:`repro.obs`).  When omitted a private stage-granularity
    tracer runs anyway -- a handful of spans per call, unmeasurable
    against an instrumented execution -- because the span tree is the
    *only* timing source: ``result.timings`` and ``result.trace`` are
    both derived from it.  Pass an explicit tracer to keep the spans
    (``repro trace``, the suite runner, the service daemon all do).

    ``baseline`` (requires ``store``) is the program fingerprint of a
    previously analyzed baseline: the spec's program is statically
    diffed against the baseline's manifest (:mod:`repro.incr`) and
    the account -- ``warm`` when the stage-2 artifact was stored,
    else ``cold`` with a reason -- is reported on
    ``result.incremental``.  It changes nothing that runs: the result
    is byte-identical to a cold full analysis.
    """
    from .folding import FastFoldingSink, FoldingSink
    from .schedule import analyze_forest, build_nest_forest, plan_all
    from .feedback.stride import stride_scores

    if tracer is None:
        # a standalone analyze() is its own trace front door: mint a
        # context so even library callers get stitchable span identity
        from .obs.context import new_trace_context

        tracer = Tracer(context=new_trace_context())
    if engine != "fast" and (store is not None or baseline is not None):
        raise ValueError(
            "only the fast engine runs with store or baseline "
            "(the reference engine is serial and uncached)"
        )
    if baseline is not None and store is None:
        raise ValueError("analyze(baseline=...) requires an artifact store")
    keys = None
    if store is not None:
        from .store import (
            decode_control_profile,
            decode_stage2,
            encode_control_profile,
            encode_stage2,
            keys_for_spec,
        )

    stage1_cached = stage2_cached = False
    with tracer.span(
        "analyze", cat="pipeline", workload=spec.name, engine=engine
    ) as root:
        if store is not None:
            with tracer.span("store.keys", cat="cache"):
                keys = keys_for_spec(spec, fuel=fuel, clamp=clamp)

        # -- baseline planning: the static diff account ------------------------
        incr_info = new_manifest = None
        if baseline is not None:
            from .incr import plan_incremental

            incr_info, new_manifest = plan_incremental(
                spec, keys, baseline, store, tracer
            )

        # -- stage 1: interprocedural control structure ------------------------
        with tracer.span("instr1", cat="stage"):
            control = None
            if store is not None:
                with tracer.span("stage1.load", cat="cache"):
                    control = store.load(keys.stage1, decode_control_profile)
            stage1_cached = control is not None
            if control is None:
                control = profile_control(
                    spec,
                    fuel=fuel,
                    engine=engine,
                    extra_observers=extra_observers,
                    tracer=tracer,
                )
            if store is not None and not store.contains(keys.stage1):
                with tracer.span("stage1.put", cat="cache"):
                    store.put(keys.stage1, encode_control_profile(control))

        # -- stage 2: DDG streams + folding ------------------------------------
        with tracer.span("instr2_fold", cat="stage"):
            dep_vectors = None
            loaded = None
            if store is not None:
                with tracer.span("stage2.load", cat="cache"):
                    loaded = store.load(
                        keys.stage2, lambda p: decode_stage2(p, spec.program)
                    )
            if loaded is not None:
                folded, ddgp, dep_vectors = loaded
                stage2_cached = True
                if incr_info is not None:
                    incr_info.mode = "warm"
                    incr_info.reason = "stage2-warm-hit"
                    incr_info.regions_reused = len(spec.program.functions)
            else:
                sink_cls = FastFoldingSink if engine == "fast" else FoldingSink
                sink = sink_cls(clamp=clamp)
                ddgp = profile_ddg(
                    spec,
                    control,
                    sink=sink,
                    fuel=fuel,
                    engine=engine,
                    extra_observers=extra_observers,
                    tracer=tracer,
                )
                with tracer.span("fold.finalize", cat="fold"):
                    folded = sink.finalize(tracer=tracer)

        # -- feedback: dependence vectors, forest analysis, planning -----------
        with tracer.span("feedback", cat="stage"):
            with tracer.span("feedback.forest", cat="feedback"):
                forest = build_nest_forest(folded, deps=dep_vectors)
            with tracer.span("feedback.analysis", cat="feedback"):
                analyze_forest(forest)
            with tracer.span("feedback.plan", cat="feedback"):
                plans = plan_all(forest, stride_scores_of=stride_scores)
            if store is not None and not store.contains(keys.stage2):
                with tracer.span("stage2.put", cat="cache"):
                    store.put(
                        keys.stage2,
                        encode_stage2(spec.program, folded, ddgp, forest.deps),
                    )
            if store is not None:
                # write the manifest on every stored run, so *this*
                # analysis can serve as a future baseline
                from .incr import build_manifest

                with tracer.span("incr.put", cat="cache"):
                    if not store.contains(keys.manifest):
                        store.put(
                            keys.manifest,
                            new_manifest
                            or build_manifest(
                                spec.program, keys.program_digest
                            ),
                        )

    timings = (
        StageTimings.from_span_tree(root, stage1_cached, stage2_cached)
        if tracer.enabled
        else StageTimings(
            stage1_cached=stage1_cached, stage2_cached=stage2_cached
        )
    )
    result = AnalysisResult(
        spec=spec,
        control=control,
        ddg_profile=ddgp,
        folded=folded,
        forest=forest,
        plans=plans,
        engine=engine,
        timings=timings,
        trace=root if tracer.enabled else None,
        incremental=incr_info,
    )
    if crosscheck:
        from .dataflow.crosscheck import CheckOptions, run_crosscheck

        with tracer.span("crosscheck", cat="stage"):
            result.crosscheck = run_crosscheck(
                result,
                CheckOptions(fuel=fuel, extra_observers=extra_observers),
            )
    return result
