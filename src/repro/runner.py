"""Parallel suite runner: analyze many workloads with bounded time.

The paper profiles the whole Rodinia suite.  :func:`run_suite` fans the
per-workload :func:`~repro.pipeline.analyze` calls out over a process
pool (profiling is CPU-bound pure Python, so threads would not help),
with a per-workload wall-clock timeout and graceful degradation: a
workload that times out, crashes, or loses its worker process yields
an error :class:`WorkloadResult` instead of sinking the suite.

Tasks are either registry names (resolved in the worker via
:func:`repro.workloads.all_workloads`) or picklable zero-argument
callables returning a :class:`~repro.pipeline.ProgramSpec` -- anything
a ``ProcessPoolExecutor`` can ship.  Results always come back in
submission order, regardless of completion order.

``jobs <= 1`` runs inline (no pool, no pickling), which is also the
fallback the CLI uses on single-core machines.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

#: a suite task: a workload registry name or a spec factory
SuiteTask = Union[str, Callable[[], "ProgramSpec"]]


class WorkloadTimeout(Exception):
    """Raised inside a worker when the per-workload deadline expires."""


@dataclass
class WorkloadResult:
    """Outcome of analyzing one workload (always picklable)."""

    name: str
    ok: bool
    error: Optional[str] = None
    timed_out: bool = False
    #: True when the suite was interrupted (SIGINT) before this
    #: workload could finish; such runs render as ``stopped``
    interrupted: bool = False
    wall_seconds: float = 0.0
    #: per-stage split of ``wall_seconds`` (Instrumentation I;
    #: Instrumentation II + folding; feedback/scheduling) -- cache-aware:
    #: on a warm hit the profiling stages collapse to artifact decode
    t_instr1: float = 0.0
    t_instr2_fold: float = 0.0
    t_feedback: float = 0.0
    #: True when the artifact store served the whole profile (no
    #: instrumented execution ran)
    cache_hit: bool = False
    #: exported span forest of this workload's analysis
    #: (:meth:`repro.obs.Span.to_dict` documents -- plain dicts so the
    #: trace survives the trip back across the process pool)
    trace: Optional[List[Dict]] = None
    #: this worker's store counters (hits/misses/puts/evictions/errors);
    #: None when the run was uncached
    cache_stats: Optional[Dict[str, int]] = None
    #: fold worker processes the analysis ran with (1 = serial fold)
    fold_jobs: int = 1
    #: per-shard fold busy seconds when ``fold_jobs > 1``.  Shards run
    #: concurrently with each other *and* with the instrumented
    #: execution, so these overlap ``t_instr2_fold`` and are kept out
    #: of the StageTimings parts-sum-to-total invariant (instr1 +
    #: instr2_fold + feedback still equals the root span exactly).
    t_shards: Optional[List[float]] = None
    #: summary of the analysis when ``ok``
    dyn_instrs: int = 0
    statements: int = 0
    deps: int = 0
    plans: int = 0
    report: Optional[str] = None
    #: soundness violations found by ``--crosscheck`` (None = not run)
    soundness_violations: Optional[int] = None
    crosscheck_report: Optional[str] = None

    def status(self) -> str:
        if self.ok:
            return "ok"
        if self.timed_out:
            return "timeout"
        if self.interrupted:
            return "stopped"
        return "error"

    def hot_phase(self) -> str:
        """The stage this workload spent most of its wall time in
        (span-derived; the suite table's ``hot`` column)."""
        stages = {
            "instr1": self.t_instr1,
            "fold": self.t_instr2_fold,
            "feedback": self.t_feedback,
        }
        if not any(stages.values()):
            return "-"
        return max(stages, key=stages.__getitem__)


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`WorkloadTimeout` after ``seconds`` of wall time.

    Implemented with ``SIGALRM``/``setitimer``, which only works on the
    main thread of a process (always true for pool workers and for the
    inline path of a CLI run); anywhere else the deadline degrades to
    unbounded rather than failing.
    """
    if (
        not seconds
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise WorkloadTimeout()

    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


def _resolve(task: SuiteTask):
    from .pipeline import ProgramSpec

    if isinstance(task, str):
        from .workloads import all_workloads

        reg = all_workloads()
        if task not in reg:
            raise KeyError(
                f"unknown workload {task!r}; available: "
                + ", ".join(sorted(reg))
            )
        return reg[task]()
    spec = task()
    if not isinstance(spec, ProgramSpec):
        raise TypeError(
            f"suite task factory returned {type(spec).__name__}, "
            "expected ProgramSpec"
        )
    return spec


def task_name(task: SuiteTask) -> str:
    if isinstance(task, str):
        return task
    return getattr(task, "__name__", repr(task))


def _analyze_task(
    task: SuiteTask,
    fuel: int,
    clamp: Optional[int],
    timeout: Optional[float],
    with_report: bool,
    crosscheck: bool = False,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    fold_jobs: int = 1,
    trace: Optional[dict] = None,
) -> WorkloadResult:
    """Worker body: analyze one workload, never raise.

    All workers of one suite share ``cache_dir``: the store's atomic
    writes make concurrent puts of the same key safe, and its counters
    come back in the result for the suite-level summary.

    ``trace`` is the suite's distributed trace context as a plain dict
    (:meth:`~repro.obs.context.TraceContext.as_dict`, dict so it
    pickles across the pool): this workload's root spans adopt it, so
    the whole fan-out stitches into the submitting request's trace.
    """
    name = task_name(task)
    t0 = time.perf_counter()
    store = None
    if cache_dir is not None:
        from .store import ArtifactStore

        store = ArtifactStore(cache_dir, max_bytes=cache_max_bytes)
    from .obs import Tracer
    from .obs.context import TraceContext

    tracer = Tracer(
        context=TraceContext.from_dict(trace) if trace else None
    )
    try:
        with _deadline(timeout):
            with tracer.span("workload", cat="suite", workload=name):
                spec = _resolve(task)
                name = spec.name
                from .feedback.report import render_report
                from .pipeline import analyze

                result = analyze(
                    spec, fuel=fuel, clamp=clamp,
                    crosscheck=crosscheck, store=store, tracer=tracer,
                    fold_jobs=fold_jobs,
                )
                report = None
                if with_report:
                    with tracer.span("render_report", cat="feedback"):
                        report = render_report(
                            result.forest,
                            result.plans,
                            title=f"poly-prof feedback: {spec.name}",
                        )
        cc = result.crosscheck
        return WorkloadResult(
            name=name,
            ok=True,
            wall_seconds=time.perf_counter() - t0,
            t_instr1=result.timings.instr1,
            t_instr2_fold=result.timings.instr2_fold,
            t_feedback=result.timings.feedback,
            cache_hit=result.timings.cache_hit,
            fold_jobs=result.fold_jobs,
            t_shards=result.shard_seconds,
            cache_stats=store.stats.as_dict() if store else None,
            trace=tracer.to_dicts(),
            dyn_instrs=result.ddg_profile.builder.instr_count,
            statements=result.folded.stmt_count(),
            deps=len(result.folded.deps),
            plans=len(result.plans),
            report=report,
            soundness_violations=len(cc.violations) if cc else None,
            crosscheck_report=cc.render() if cc and cc.violations else None,
        )
    except WorkloadTimeout:
        return WorkloadResult(
            name=name,
            ok=False,
            timed_out=True,
            error=f"timed out after {timeout:g}s",
            wall_seconds=time.perf_counter() - t0,
        )
    except KeyboardInterrupt:
        # the user wants the *suite* to stop, not an error record for
        # this workload; run_suite turns it into partial results
        raise
    except BaseException as exc:  # noqa: BLE001 - error record, not crash
        return WorkloadResult(
            name=name,
            ok=False,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
            wall_seconds=time.perf_counter() - t0,
        )


def run_suite(
    tasks: Sequence[SuiteTask],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    fuel: int = 50_000_000,
    clamp: Optional[int] = None,
    with_report: bool = False,
    crosscheck: bool = False,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    fold_jobs: int = 1,
    trace: Optional[dict] = None,
) -> List[WorkloadResult]:
    """Analyze ``tasks``, ``jobs`` at a time; results in task order.

    ``fold_jobs > 1`` folds each workload's stage 2 in that many shard
    processes (:mod:`repro.parallel`); total process fan-out is then
    ``jobs x (1 + fold_jobs)``, so callers on small hosts should trade
    one against the other.

    ``jobs`` defaults to the CPU count.  ``timeout`` bounds each
    workload's wall time (None = unbounded).  Failures degrade to
    error records -- the suite always returns one result per task.
    ``crosscheck`` runs the soundness sanitizers per workload and
    reports the violation count.  ``cache_dir`` points every worker at
    one shared artifact store (:mod:`repro.store`), optionally capped
    at ``cache_max_bytes`` of LRU-evicted artifacts.

    ``KeyboardInterrupt`` (Ctrl-C / SIGINT) never escapes: pending
    workloads are cancelled, and every unfinished task comes back as
    an ``interrupted`` record so callers can still print the partial
    table and exit nonzero.

    ``trace`` (a :meth:`TraceContext.as_dict
    <repro.obs.context.TraceContext.as_dict>` document) threads every
    workload's span forest into one distributed trace across the
    process pool; None leaves each workload's trace unlinked.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(tasks) <= 1:
        results_inline: List[WorkloadResult] = []
        try:
            for t in tasks:
                results_inline.append(
                    _analyze_task(
                        t, fuel, clamp, timeout, with_report,
                        crosscheck, cache_dir, cache_max_bytes, fold_jobs,
                        trace,
                    )
                )
        except KeyboardInterrupt:
            _mark_interrupted(results_inline, tasks)
        return results_inline

    from concurrent.futures import ProcessPoolExecutor

    results: List[Optional[WorkloadResult]] = [None] * len(tasks)
    pool = ProcessPoolExecutor(max_workers=jobs)
    interrupted = False
    futures = []
    try:
        futures = [
            pool.submit(
                _analyze_task, t, fuel, clamp, timeout,
                with_report, crosscheck, cache_dir, cache_max_bytes,
                fold_jobs, trace,
            )
            for t in tasks
        ]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # BrokenProcessPool, cancel, ...
                results[i] = WorkloadResult(
                    name=task_name(tasks[i]),
                    ok=False,
                    error=f"worker failed: {exc!r}",
                )
    except KeyboardInterrupt:
        # cancel everything still queued; don't wait for in-flight
        # workers (they got the same SIGINT), just collect what we have
        interrupted = True
        for i, fut in enumerate(futures):
            if results[i] is None and fut.done() and not fut.cancelled():
                try:
                    results[i] = fut.result(timeout=0)
                except BaseException:
                    results[i] = None
        for i, r in enumerate(results):
            if r is None:
                results[i] = _interrupted_record(tasks[i])
    finally:
        try:
            pool.shutdown(wait=not interrupted, cancel_futures=interrupted)
        except TypeError:  # pragma: no cover - pre-3.9 signature
            pool.shutdown(wait=not interrupted)
    return results  # type: ignore[return-value]


def _interrupted_record(task: SuiteTask) -> WorkloadResult:
    return WorkloadResult(
        name=task_name(task),
        ok=False,
        interrupted=True,
        error="interrupted (SIGINT) before completion",
    )


def _mark_interrupted(
    results: List[WorkloadResult], tasks: Sequence[SuiteTask]
) -> None:
    """Pad ``results`` with one ``interrupted`` record per unfinished
    task (in task order)."""
    for t in tasks[len(results):]:
        results.append(_interrupted_record(t))


def _shard_spread(t_shards: Optional[List[float]]) -> str:
    """``min~max`` per-shard fold seconds -- the suite table's load-
    balance column (a wide spread means one hot shard is the critical
    path)."""
    if not t_shards:
        return "-"
    return f"{min(t_shards):.2f}~{max(t_shards):.2f}s"


def render_suite_table(results: Sequence[WorkloadResult]) -> str:
    """A compact text table of suite results."""
    crosschecked = any(r.soundness_violations is not None for r in results)
    cached = any(r.cache_stats is not None for r in results)
    parallel = any(r.fold_jobs > 1 for r in results)
    # the name column grows with the longest workload name (sweep point
    # tasks render as e.g. "pathfinder[cols=12,rows=20]") but never
    # shrinks below the historical 16, keeping short-name output stable
    name_w = max([16] + [len(r.name) for r in results])
    header = (
        f"{'workload':{name_w}s} {'status':8s} {'wall':>7s} {'dyn ops':>10s} "
        f"{'stmts':>6s} {'deps':>6s} {'plans':>6s} {'hot':>8s}"
    )
    if parallel:
        header += f" {'fj':>3s} {'shards':>12s}"
    if cached:
        header += f" {'cache':>6s}"
    if crosschecked:
        header += f" {'sound':>6s}"
    lines = [header]
    for r in results:
        if r.ok:
            line = (
                f"{r.name:{name_w}s} {r.status():8s} {r.wall_seconds:6.2f}s "
                f"{r.dyn_instrs:10d} {r.statements:6d} {r.deps:6d} "
                f"{r.plans:6d} {r.hot_phase():>8s}"
            )
            if parallel:
                line += (
                    f" {r.fold_jobs:3d} {_shard_spread(r.t_shards):>12s}"
                )
            if cached:
                if r.cache_stats is None:
                    line += f" {'-':>6s}"
                else:
                    line += f" {'warm' if r.cache_hit else 'cold':>6s}"
            if crosschecked:
                if r.soundness_violations is None:
                    line += f" {'-':>6s}"
                elif r.soundness_violations == 0:
                    line += f" {'ok':>6s}"
                else:
                    line += f" {r.soundness_violations:5d}!"
            lines.append(line)
        else:
            lines.append(
                f"{r.name:{name_w}s} {r.status():8s} {r.wall_seconds:6.2f}s "
                f"-- {r.error}"
            )
    n_ok = sum(1 for r in results if r.ok)
    lines.append(f"{n_ok}/{len(results)} workloads analyzed")
    if cached:
        from .store import StoreStats

        agg = StoreStats()
        for r in results:
            if r.cache_stats:
                agg.merge(r.cache_stats)
        lines.append(
            f"cache: {agg.hits} hit(s), {agg.misses} miss(es), "
            f"{agg.puts} put(s), {agg.evictions} eviction(s)"
            + (f", {agg.errors} error(s)" if agg.errors else "")
        )
    if crosschecked:
        n_viol = sum(r.soundness_violations or 0 for r in results)
        lines.append(
            "crosscheck: no soundness violations"
            if n_viol == 0
            else f"crosscheck: {n_viol} soundness violation(s)"
        )
        for r in results:
            if r.crosscheck_report:
                lines.append(r.crosscheck_report)
    return "\n".join(lines)
