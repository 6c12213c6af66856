"""Process-pool job execution: one long-lived worker process per slot.

A worker thread shares the daemon's fate: an analysis that is killed,
segfaults or wedges outside observed code takes the daemon or its slot
with it.  This module moves execution into worker *processes* while
keeping the daemon's front half (queue, dedup, registry, drain)
untouched: each daemon worker thread owns one :class:`ProcessWorker`
and proxies claimed jobs to it, so a thread slot becomes a process
slot that can be killed and respawned.  It also runs cold analyses
on separate cores: on a 2-vCPU host, at 64 concurrent clients,
process mode served 1.4-1.9x thread mode's cold throughput
(``scale_speedup`` in ``benchmarks/results/BENCH_service.json``; on
one core, with no second core to use, it measured 0.34x).

Wire protocol (two ``multiprocessing`` pipes per worker)::

    parent -> worker (control)          worker -> parent (events)
      ("job", {job_id, payload,           ("ready", {pid})
               options, ...})             ("heartbeat", {job_id, ...})
      ("cancel", job_id)                  ("result", {job_id, outcome,
      ("stop", None)                                  store_stats})

Jobs cross the boundary in the fingerprint-preserving formats that
already exist: registered workloads ship as their registry name,
inline submissions as their progjson program/state documents
(:mod:`repro.isa.progjson`), and options as the
:meth:`~repro.service.jobs.JobOptions.as_dict` document.  Results come
back as the picklable outcome dict of
:func:`~repro.service.executor.run_analysis` -- the exact same
execution and rendering core the thread pool uses, which is what keeps
process-mode artifacts byte-identical to thread-mode and CLI output.

Timeout and cancellation stay **cooperative and worker-side**: the
deadline observer rides the instrumented executions inside the worker
process exactly as it does inside a worker thread.  The parent adds
the two guarantees threads could never give:

* **hard kill on overrun** -- a worker that blows through its deadline
  plus a grace window (stuck in non-observed code) is killed and
  respawned, and the job lands ``timeout`` instead of wedging a slot;
* **crash containment** -- a worker dying mid-job (OOM kill, segfault,
  ``kill -9``) marks the job ``failed`` with a machine-readable
  ``worker_crashed`` record, respawns the worker, and increments
  ``repro_service_worker_restarts_total``; before this, a dead
  executor left the job ``running`` forever.

Every worker opens its own :class:`~repro.store.ArtifactStore` handle
on the shared cache directory (cross-process-safe: atomic puts,
``flock``-guarded eviction) and ships per-job stats deltas back so the
daemon's ``/metrics`` still tells the truth about cache behavior.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from typing import Callable, Optional

from .jobs import Job, JobOptions, JobState

#: seconds the parent waits for a freshly spawned worker's ready message
SPAWN_TIMEOUT = 60.0

#: parent-side poll granularity while a job runs in a worker (bounds
#: cancel-forwarding latency; heartbeats arrive on the same poll)
POLL_SECONDS = 0.05

#: seconds past the cooperative deadline (or past a forwarded cancel)
#: before the parent stops trusting the worker and hard-kills it
HARD_KILL_GRACE = 10.0


def _job_payload(job: Job) -> dict:
    """The picklable description of one job's work."""
    if not job.inline:
        payload = {"workload": job.workload}
        if job.bindings:
            payload["bindings"] = dict(job.bindings)
        return payload
    from ..isa.progjson import encode_program, encode_state

    args, memory = job.spec.make_state()
    return {
        "program": encode_program(job.spec.program),
        "state": encode_state(args, memory),
        "name": job.spec.name,
    }


def _rebuild_spec(payload: dict):
    if "workload" in payload:
        from ..workloads import all_workloads

        return all_workloads()[payload["workload"]](
            **payload.get("bindings", {})
        )
    from ..isa.progjson import spec_from_documents

    return spec_from_documents(
        payload["program"], payload["state"], name=payload["name"]
    )


def _worker_main(ctl, evt, cache_dir, cache_max_bytes) -> None:
    """Worker process body: execute shipped jobs until told to stop.

    A reader thread owns the control pipe so cancels are seen *while*
    a job executes; the main thread owns the event pipe so heartbeats
    and results never interleave mid-message.  Pipe death (the daemon
    went away) exits the worker rather than leaving an orphan.
    """
    from ..obs.context import TraceContext
    from ..store import ArtifactStore
    from .executor import run_analysis

    store = (
        ArtifactStore(cache_dir, max_bytes=cache_max_bytes)
        if cache_dir
        else None
    )
    inbox: "queue_mod.Queue" = queue_mod.Queue()
    cancels: dict = {}
    cancels_lock = threading.Lock()

    def _read_control() -> None:
        while True:
            try:
                msg, data = ctl.recv()
            except (EOFError, OSError):
                inbox.put(("stop", None))
                return
            if msg == "cancel":
                with cancels_lock:
                    event = cancels.get(data)
                if event is not None:
                    event.set()
            elif msg == "job":
                # the reader registers the cancel event so a cancel
                # arriving a tick after its job can never be dropped
                event = threading.Event()
                with cancels_lock:
                    cancels[data["job_id"]] = event
                data["_cancel"] = event
                inbox.put((msg, data))
            else:
                inbox.put((msg, data))
                if msg == "stop":
                    return

    threading.Thread(
        target=_read_control, name="repro-procpool-ctl", daemon=True
    ).start()
    try:
        evt.send(("ready", {"pid": os.getpid()}))
        while True:
            msg, data = inbox.get()
            if msg == "stop":
                return
            job_id = data["job_id"]

            def _beat(**fields):
                try:
                    evt.send(("heartbeat", dict(fields, job_id=job_id)))
                except (BrokenPipeError, OSError):
                    pass  # parent went away; the job result will too

            before = store.stats.as_dict() if store else None
            try:
                spec = _rebuild_spec(data["payload"])
                options = JobOptions(**data["options"])
                trace_ctx = (
                    TraceContext.from_dict(data["trace"])
                    if data.get("trace")
                    else None
                )
                outcome = run_analysis(
                    spec,
                    options,
                    store=store,
                    cancel_event=data["_cancel"],
                    heartbeat=_beat,
                    trace_ctx=trace_ctx,
                )
            except Exception as exc:  # spec/options rebuild failed
                outcome = {
                    "state": JobState.FAILED,
                    "error": f"worker could not rebuild job: {exc!r}",
                }
            stats_delta = None
            if store is not None:
                after = store.stats.as_dict()
                stats_delta = {
                    k: after[k] - before[k] for k in after
                }
            with cancels_lock:
                cancels.pop(job_id, None)
            evt.send(
                (
                    "result",
                    {
                        "job_id": job_id,
                        "outcome": outcome,
                        "store_stats": stats_delta,
                    },
                )
            )
    except (BrokenPipeError, OSError, EOFError):
        pass  # parent died; exit quietly
    finally:
        for conn in (ctl, evt):
            try:
                conn.close()
            except OSError:
                pass


class ProcessWorker:
    """Parent-side handle on one long-lived worker process.

    Owned and driven by exactly one daemon worker thread
    (``run_job``); only ``stop``/``kill`` may be called from the
    shutdown path after that thread has been joined.
    """

    def __init__(
        self,
        index: int,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        hard_kill_grace: float = HARD_KILL_GRACE,
        on_restart: Optional[Callable[[int], None]] = None,
        on_store_stats: Optional[Callable[[dict], None]] = None,
        logger=None,
        mp_context=None,
    ) -> None:
        self.index = index
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.hard_kill_grace = hard_kill_grace
        self.on_restart = on_restart
        self.on_store_stats = on_store_stats
        self.logger = logger
        self._ctx = (
            mp_context
            if mp_context is not None
            else multiprocessing.get_context()
        )
        self.restarts = 0
        self.jobs_executed = 0
        self.closed = False
        self._proc = None
        self._ctl = None
        self._evt = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def spawn(self) -> None:
        """Start (or restart) the worker process and wait until it
        reports ready."""
        self._teardown()
        ctl_r, ctl_w = self._ctx.Pipe(duplex=False)
        evt_r, evt_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(ctl_r, evt_w, self.cache_dir, self.cache_max_bytes),
            name=f"repro-procworker-{self.index}",
            daemon=True,
        )
        proc.start()
        ctl_r.close()
        evt_w.close()
        self._proc, self._ctl, self._evt = proc, ctl_w, evt_r
        if not evt_r.poll(SPAWN_TIMEOUT):
            self._teardown()
            raise RuntimeError(
                f"process worker {self.index} never reported ready"
            )
        msg, data = evt_r.recv()
        if msg != "ready":  # pragma: no cover - protocol guard
            self._teardown()
            raise RuntimeError(
                f"process worker {self.index} sent {msg!r} before ready"
            )
        if self.logger is not None:
            self.logger.info(
                "process_worker_ready", worker=self.index, pid=proc.pid
            )

    def _respawn(self) -> None:
        """Replace a dead worker; counts toward the restart metric."""
        self.restarts += 1
        if self.on_restart is not None:
            self.on_restart(self.index)
        if self.closed:
            return
        try:
            self.spawn()
        except Exception:
            # a host that cannot fork right now will get another
            # chance on the next job; run_job handles a dead worker
            self._teardown()

    def _teardown(self) -> None:
        for conn in (self._ctl, self._evt):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)
            if self._proc.is_alive():  # pragma: no cover - stuck kernel
                self._proc.kill()
                self._proc.join(timeout=5)
        self._proc = self._ctl = self._evt = None

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful worker exit (between jobs); kills on overrun."""
        self.closed = True
        if self._proc is not None and self._proc.is_alive():
            try:
                self._ctl.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(timeout=timeout)
        self._teardown()

    def kill(self) -> None:
        """Immediate teardown (shutdown past grace)."""
        self.closed = True
        self._teardown()

    # -- job execution ---------------------------------------------------------

    def run_job(self, job: Job) -> Job:
        """Execute one job in the worker process; never raises.

        Mirrors :func:`~repro.service.executor.execute_job`'s contract
        from the daemon's point of view: the job leaves in a terminal
        state with artifacts (or an error record) attached.
        """
        if not job.transition((JobState.QUEUED,), JobState.RUNNING):
            return job
        if not self.alive():
            self._respawn()
            if not self.alive():
                return self._mark_crashed(
                    job, "worker process could not be spawned"
                )
        try:
            payload = _job_payload(job)
        except Exception as exc:
            job.error = f"could not encode job for worker: {exc!r}"
            job.transition((JobState.RUNNING,), JobState.FAILED)
            return job
        message = {
            "job_id": job.id,
            "payload": payload,
            "options": job.options.as_dict(),
            # trace context crosses the pipe as a plain dict so the
            # worker's root spans stitch under the submitting request
            "trace": dict(job.trace) if job.trace else None,
        }
        try:
            self._ctl.send(("job", message))
        except (BrokenPipeError, OSError):
            # died idle between jobs: one respawn, one retry
            self._respawn()
            if not self.alive():
                return self._mark_crashed(job, "worker died before job")
            try:
                self._ctl.send(("job", message))
            except (BrokenPipeError, OSError):
                self._respawn()
                return self._mark_crashed(job, "worker died before job")
        return self._await_result(job)

    def _await_result(self, job: Job) -> Job:
        from .executor import apply_outcome

        deadline = (
            time.monotonic() + job.options.timeout
            if job.options.timeout
            else None
        )
        kill_at = (
            deadline + self.hard_kill_grace if deadline else None
        )
        cancel_forwarded = False
        while True:
            try:
                has_event = self._evt.poll(POLL_SECONDS)
            except OSError:
                has_event = False
            if has_event:
                try:
                    msg, data = self._evt.recv()
                except (EOFError, OSError):
                    self._respawn()
                    return self._mark_crashed(job, "worker died mid-job")
                if msg == "heartbeat" and data.get("job_id") == job.id:
                    fields = dict(data)
                    fields.pop("job_id", None)
                    job.heartbeat(**fields)
                elif msg == "result" and data.get("job_id") == job.id:
                    self.jobs_executed += 1
                    if (
                        data.get("store_stats")
                        and self.on_store_stats is not None
                    ):
                        self.on_store_stats(data["store_stats"])
                    return apply_outcome(
                        job, data["outcome"], logger=self.logger
                    )
                continue  # stale message from a killed predecessor job
            if not self.alive():
                self._respawn()
                return self._mark_crashed(job, "worker died mid-job")
            now = time.monotonic()
            if job.cancel_event.is_set() and not cancel_forwarded:
                cancel_forwarded = True
                # the worker honors this at deadline-check granularity;
                # past the grace window we stop waiting politely
                kill_at = min(
                    kill_at or float("inf"),
                    now + self.hard_kill_grace,
                )
                try:
                    self._ctl.send(("cancel", job.id))
                except (BrokenPipeError, OSError):
                    self._respawn()
                    return self._mark_crashed(job, "worker died mid-job")
            if kill_at is not None and now > kill_at:
                # cooperative mechanisms failed: hard-kill + respawn
                self._teardown()
                self._respawn()
                if cancel_forwarded:
                    job.error = "cancelled while running"
                    job.transition(
                        (JobState.RUNNING,), JobState.CANCELLED
                    )
                else:
                    job.error = (
                        f"timed out after {job.options.timeout:g}s "
                        "(worker hard-killed past grace)"
                    )
                    job.transition((JobState.RUNNING,), JobState.TIMEOUT)
                if self.logger is not None:
                    self.logger.warning(
                        "process_worker_hard_killed",
                        worker=self.index,
                        job_id=job.id,
                        state=job.state,
                    )
                return job

    def _mark_crashed(self, job: Job, detail: str) -> Job:
        job.error = f"worker_crashed: {detail}"
        job.crash = {
            "kind": "worker_crashed",
            "worker": self.index,
            "detail": detail,
        }
        job.transition((JobState.RUNNING,), JobState.FAILED)
        if self.logger is not None:
            self.logger.error(
                "job_worker_crashed",
                job_id=job.id,
                worker=self.index,
                detail=detail,
            )
        return job
