"""Job execution: one worker turning a queued job into artifacts.

Runs the ordinary :func:`repro.pipeline.analyze` against the shared
:class:`~repro.store.ArtifactStore` and renders the exact response
bytes (report / metrics JSON documents, flame-graph SVG) the HTTP layer
will serve -- through the same :mod:`repro.feedback.jsonout` renderer
the CLI uses, which is what makes service responses byte-identical to
CLI output.

Timeouts and cancellation are **cooperative**: worker threads cannot
use the suite runner's ``SIGALRM`` deadline (signals only fire on the
main thread), so one passive :class:`DeadlineObserver` rides along both
profiled executions via ``analyze(extra_observers=...)``, aborts the
run by raising -- through the crosscheck recount too -- and sends the
job's progress heartbeats.  It counts executed instructions and, once
per :data:`CHECK_EVERY` of them, reads the clock and checks the cancel
flag, the deadline and the heartbeat interval, on both engines.  A
warm cache hit never executes and therefore never times out, which is
the desired behavior: the answer is already there.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Optional

from ..feedback.jsonout import metrics_document, render_json, report_document
from ..isa.events import Instrumentation
from ..obs import Tracer, clock_anchor
from ..obs.context import TraceContext
from .jobs import Job, JobState


class JobTimeout(Exception):
    """The job's deadline expired mid-execution."""


class JobCancelled(Exception):
    """The job's cancel flag was raised mid-execution."""


#: executed instructions between two deadline/cancel/heartbeat checks
CHECK_EVERY = 4096

#: minimum seconds between progress heartbeats written to job state
HEARTBEAT_EVERY = 0.25


class DeadlineObserver(Instrumentation):
    """Passive observer that aborts a run past its deadline or on
    cancellation, and streams progress to an optional ``beat``
    callback (``beat(dyn_instrs=...)``, at most once per
    :data:`HEARTBEAT_EVERY` seconds) so pollers see a moving
    ``dyn_instrs``.  Attached via ``analyze(extra_observers=...)``; it
    must never mutate anything the analysis can see."""

    def __init__(
        self,
        deadline: Optional[float],
        cancel_event: Optional[threading.Event] = None,
        beat=None,
    ) -> None:
        self.deadline = deadline
        self.cancel_event = cancel_event
        self.beat = beat
        self._counted = 0  # instructions before the current countdown
        self._countdown = CHECK_EVERY
        self._next_beat = 0.0

    @property
    def dyn_instrs(self) -> int:
        """Instructions executed under this observer so far."""
        return self._counted + CHECK_EVERY - self._countdown

    def _check(self) -> None:
        self._counted += CHECK_EVERY - self._countdown
        self._countdown = CHECK_EVERY
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise JobCancelled()
        if self.deadline is None and self.beat is None:
            return
        now = time.monotonic()
        if self.deadline is not None and now > self.deadline:
            raise JobTimeout()
        if self.beat is not None and now >= self._next_beat:
            self._next_beat = now + HEARTBEAT_EVERY
            self.beat(dyn_instrs=self._counted)

    def on_block(self, instrs, frame_id, values, addrs) -> None:
        self._countdown -= len(instrs)
        if self._countdown <= 0:
            self._check()

    def on_instr(self, instr, frame_id, value, addr) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._check()


def _run_job(options, cancel_event, heartbeat, trace_ctx, run,
             fields) -> dict:
    """What running an analysis and running a sweep share: the
    deadline observer, the job's tracer, the failure mapping and the
    trace keys of the outcome.  ``run(tracer, observers)`` does the
    work; ``fields(result)`` gives the outcome keys particular to it.
    Never raises."""

    def _beat(**update):
        if heartbeat is not None:
            heartbeat(**update)

    deadline = (
        time.monotonic() + options.timeout if options.timeout else None
    )
    observer = DeadlineObserver(deadline, cancel_event, beat=_beat)
    # one span tree per job: StageTimings, the daemon's stage
    # histograms, the /trace artifact, and the progress heartbeats all
    # read off it; the trace context parents the roots under the
    # submitting front door's span so cross-process stitching works
    tracer = Tracer(
        on_phase=lambda phase: _beat(phase=phase), context=trace_ctx
    )
    try:
        result = run(tracer, [observer])
        _beat(phase="done", dyn_instrs=observer.dyn_instrs)
        outcome = {
            "state": JobState.DONE,
            "error": None,
            "total_seconds": tracer.total_seconds(),
            **fields(result),
            # distributed-trace segment: the span forest, where it ran,
            # and a clock anchor so the collector can stitch timelines
            # from different processes onto one axis; the daemon also
            # renders the job's /trace artifact from it on fetch
            "spans": tracer.to_dicts(),
            "pid": os.getpid(),
            "clock": clock_anchor(),
        }
    except Exception as exc:
        # a deadline or cancellation that fires mid-point of a sweep
        # surfaces as SweepError with JobTimeout/JobCancelled as its
        # cause
        aborts = (exc, exc.__cause__)
        if any(isinstance(e, JobTimeout) for e in aborts):
            outcome = {
                "state": JobState.TIMEOUT,
                "error": f"timed out after {options.timeout:g}s",
            }
        elif any(isinstance(e, JobCancelled) for e in aborts):
            outcome = {
                "state": JobState.CANCELLED,
                "error": "cancelled while running",
            }
        else:
            # error *record*, not a crashed worker; keep logs trace-free
            outcome = {
                "state": JobState.FAILED,
                "error": "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
            }
    finally:
        tracer.close()
    return outcome


def run_analysis(
    spec,
    options,
    store=None,
    cancel_event: Optional[threading.Event] = None,
    heartbeat=None,
    trace_ctx: Optional[TraceContext] = None,
) -> dict:
    """Execute one analysis to a plain, picklable **outcome** dict.

    This is the execution core both worker flavors share: the thread
    pool calls it in-process (:func:`execute_job`), the process pool
    calls it inside a worker process (:mod:`repro.service.procpool`)
    and ships the dict back over a pipe.  Never raises: every failure
    mode lands in ``outcome["state"]``/``outcome["error"]``.

    ``heartbeat`` is a ``callable(**fields)`` receiving throttled
    progress updates (``phase=...``, ``dyn_instrs=...``); the thread
    path binds it to ``job.heartbeat``, the process path to a pipe
    send.  The rendered artifact bytes go through the same
    :mod:`repro.feedback.jsonout` renderer as the CLI, which is what
    keeps every execution mode byte-identical.
    """
    from ..feedback.flamegraph import render_flamegraph_svg
    from ..pipeline import analyze

    def run(tracer, observers):
        return analyze(
            spec,
            fuel=options.fuel,
            clamp=options.clamp,
            crosscheck=options.crosscheck,
            store=store,
            extra_observers=observers,
            tracer=tracer,
        )

    def fields(result) -> dict:
        return {
            "timings": result.timings.as_dict(),
            "stage1_cached": result.timings.stage1_cached,
            "stage2_cached": result.timings.stage2_cached,
            "cache_hit": result.timings.cache_hit,
            "summary": {
                "dyn_instrs": result.ddg_profile.builder.instr_count,
                "statements": result.folded.stmt_count(),
                "deps": len(result.folded.deps),
                "plans": len(result.plans),
            },
            "crosscheck_violations": (
                len(result.crosscheck.violations)
                if result.crosscheck is not None
                else None
            ),
            "report_json": render_json(
                report_document(result)
            ).encode("utf-8"),
            "metrics_json": render_json(
                metrics_document(result)
            ).encode("utf-8"),
            "flamegraph_svg": render_flamegraph_svg(
                result.schedule_tree,
                title=f"poly-prof annotated flame graph: {spec.name}",
            ).encode("utf-8"),
        }

    return _run_job(options, cancel_event, heartbeat, trace_ctx, run, fields)


def run_sweep_analysis(
    workload: str,
    points: list,
    options,
    store=None,
    cancel_event: Optional[threading.Event] = None,
    heartbeat=None,
    trace_ctx: Optional[TraceContext] = None,
) -> dict:
    """Execute one sweep *parent* job to an outcome dict.

    The parent re-analyzes every point inline (no warm-phase pool: the
    fanned-out child jobs already flow through the daemon's own queue
    and warm the shared store; whichever side gets to a point first,
    the store deduplicates the work).  The rendered report is the same
    :func:`repro.sweep.feedback.sweep_document` bytes the CLI emits --
    a sweep job has no metrics/flamegraph artifact (they are per-run
    notions), so those stay None and the HTTP layer 404s them.
    """
    from ..sweep.driver import run_sweep
    from ..sweep.feedback import sweep_document

    def run(tracer, observers):
        with tracer.span("sweep", cat="sweep", workload=workload):
            return run_sweep(
                workload,
                points,
                fuel=options.fuel,
                clamp=options.clamp,
                crosscheck=options.crosscheck,
                jobs=1,
                store=store,
                tracer=tracer,
                extra_observers=observers,
            )

    def fields(result) -> dict:
        return {
            "timings": {},
            "stage1_cached": False,
            "stage2_cached": False,
            "cache_hit": all(r.cache_hit for r in result.runs),
            "summary": {
                "runs": len(result.runs),
                "statements": len(result.model.statements),
                "deps": len(result.model.deps),
                "sweep_key": result.key,
            },
            "crosscheck_violations": None,
            "report_json": render_json(
                sweep_document(result)
            ).encode("utf-8"),
            "metrics_json": None,
            "flamegraph_svg": None,
        }

    return _run_job(options, cancel_event, heartbeat, trace_ctx, run, fields)


def apply_outcome(job: Job, outcome: dict, logger=None) -> Job:
    """Land an outcome dict on a RUNNING job: artifacts, timings, and
    the terminal state transition."""
    state = outcome.get("state", JobState.FAILED)
    job.error = outcome.get("error")
    if state == JobState.DONE:
        job.timings = outcome["timings"]
        job.total_seconds = outcome["total_seconds"]
        job.stage1_cached = outcome["stage1_cached"]
        job.stage2_cached = outcome["stage2_cached"]
        job.cache_hit = outcome["cache_hit"]
        job.summary = outcome["summary"]
        job.crosscheck_violations = outcome["crosscheck_violations"]
        job.report_json = outcome["report_json"]
        job.metrics_json = outcome["metrics_json"]
        job.flamegraph_svg = outcome["flamegraph_svg"]
        job.span_docs = outcome.get("spans")
        job.exec_pid = outcome.get("pid")
        job.clock = outcome.get("clock")
    elif state == JobState.FAILED and logger is not None:
        logger.error(
            "job_failed",
            job_id=job.id,
            error=job.error,
            trace_id=job.trace_id,
        )
    job.transition((JobState.RUNNING,), state)
    return job


def execute_job(job: Job, store=None, logger=None) -> Job:
    """Run one job to a terminal state in this thread.  Never raises:
    every failure mode lands in ``job.state``/``job.error``."""
    if not job.transition((JobState.QUEUED,), JobState.RUNNING):
        # cancelled while queued (or already terminal): nothing to do
        return job
    trace_ctx = (
        TraceContext.from_dict(job.trace) if job.trace else None
    )
    if job.sweep_points is not None:
        outcome = run_sweep_analysis(
            job.workload,
            job.sweep_points,
            job.options,
            store=store,
            cancel_event=job.cancel_event,
            heartbeat=job.heartbeat,
            trace_ctx=trace_ctx,
        )
    else:
        outcome = run_analysis(
            job.spec,
            job.options,
            store=store,
            cancel_event=job.cancel_event,
            heartbeat=job.heartbeat,
            trace_ctx=trace_ctx,
        )
    return apply_outcome(job, outcome, logger=logger)
