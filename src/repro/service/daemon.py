"""The analysis daemon: HTTP front door, worker pool, graceful drain.

Architecture (one process, stdlib only)::

    ThreadingHTTPServer (one thread per keep-alive connection)
        POST /v1/analyze  ->  resolve spec -> content key -> dedup
                              -> bounded queue (429 when full)
        GET  /v1/jobs/... ->  registry lookup (never blocks on work)
        GET  /v1/traces/..->  stitched Chrome trace of one request
                              (TraceCollector)
        GET  /healthz     ->  liveness + load snapshot
        GET  /metrics     ->  Prometheus text exposition
                   |
            BoundedJobQueue
                   |
        worker threads (config.workers)
            pipeline.analyze(store=shared ArtifactStore,
                             extra_observers=[DeadlineObserver])

Two execution modes share that front half unchanged
(``config.execution``):

* ``thread`` -- each worker thread runs the analysis in-process.
  Warm traffic is ideal here (a cache hit is an artifact decode away,
  no pipe crossing), but cold analyses of distinct programs contend on
  the GIL.
* ``process`` -- each worker thread *proxies* its claimed job to a
  dedicated long-lived worker process (:mod:`repro.service.procpool`),
  so a crashing analysis kills only its worker, which is respawned
  while the daemon keeps serving.  Cold analyses then also run on
  separate cores: on a 2-vCPU host, at 64 concurrent clients, process
  mode served 1.4-1.9x thread mode's cold throughput
  (``scale_speedup`` in ``benchmarks/results/BENCH_service.json``;
  on one core it measured 0.34x).  Queueing, dedup, drain,
  cancellation, heartbeats, and metrics all still happen here in the
  daemon; only ``pipeline.analyze`` moves out-of-process.  The workers
  share the daemon's cache *directory* (the store is cross-process
  safe) rather than its store handle.

Shutdown (SIGTERM/SIGINT) drains: new submissions get 503, queued jobs
are cancelled (clients polling them see ``cancelled``), in-flight jobs
finish (past ``drain_grace`` they are cooperatively cancelled), then
the HTTP server stops and the process exits 0.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import TraceCollector, chrome_trace_document, merged_trace_document
from ..obs.context import TraceContext, new_trace_context
from .executor import execute_job
from .jobs import Job, JobRegistry, JobState, derive_job_key, derive_sweep_key
from .jsonlog import JsonLogger
from .metrics import MetricsRegistry
from .queue import BoundedJobQueue, QueueFull
from .submission import (
    BadRequest,
    build_options,
    build_spec,
    child_body,
    sweep_points,
)

#: version of the HTTP API surface (paths, request/response documents);
#: every JSON response carries it as ``"version"``
SERVICE_API_VERSION = 1

_JOB_PATH = re.compile(
    r"^/v1/jobs/(?P<id>[^/]+)"
    r"(?:/(?P<sub>report|metrics|flamegraph|trace|cancel))?$"
)

_TRACE_PATH = re.compile(r"^/v1/traces/(?P<id>[0-9a-f]{32})$")

EXECUTION_MODES = ("thread", "process")


class Draining(Exception):
    """The service is shutting down (HTTP 503)."""


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the service
    workers: int = 2
    #: "thread" executes analyses in worker threads (warm-optimized),
    #: "process" proxies each to a long-lived, respawned worker process
    #: (crash isolation); see the module docstring
    execution: str = "thread"
    queue_depth: int = 16
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    #: default per-job execution timeout (seconds); None = unbounded
    default_timeout: Optional[float] = None
    retain_jobs: int = 256
    #: seconds to let in-flight jobs finish on drain before
    #: cooperatively cancelling them
    drain_grace: float = 30.0
    log_stream: Optional[IO[str]] = None
    log_level: str = "info"


class AnalysisService:
    """One daemon instance.  ``start()`` binds and spawns everything;
    ``shutdown()`` drains and stops; ``run()`` is the CLI loop."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.workers < 1:
            raise ValueError("need at least one worker")
        if config.execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {config.execution!r}; "
                f"choose from {EXECUTION_MODES}"
            )
        self.config = config
        self.logger = JsonLogger(
            stream=config.log_stream, level=config.log_level
        ).bind(service="repro.service")
        self.store = None
        if config.cache_dir:
            from ..store import ArtifactStore

            self.store = ArtifactStore(
                config.cache_dir, max_bytes=config.cache_max_bytes
            )
        self.registry = JobRegistry(retain=config.retain_jobs)
        self.queue = BoundedJobQueue(config.queue_depth)
        #: span segments of finished jobs, keyed by trace id, served
        #: (merged) on GET /v1/traces/{trace_id}
        self.traces = TraceCollector()
        self._draining = threading.Event()
        self._stop_workers = threading.Event()
        self._worker_threads: list = []
        self._process_workers: list = []  # ProcessWorker per slot
        self._current_jobs: dict = {}  # worker index -> in-flight Job
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._started_at = time.time()
        self._request_seq = 0
        self._request_seq_lock = threading.Lock()
        self._init_metrics()

    # -- metrics ---------------------------------------------------------------

    def _init_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        self.c_submitted = m.counter(
            "repro_service_jobs_submitted_total",
            "Well-formed analyze submissions accepted (incl. deduplicated).",
        )
        self.c_deduped = m.counter(
            "repro_service_jobs_deduped_total",
            "Submissions coalesced onto an existing identical job.",
        )
        self.c_rejected = m.counter(
            "repro_service_jobs_rejected_total",
            "Submissions rejected with 429 because the queue was full.",
        )
        self.c_executed = m.counter(
            "repro_service_jobs_executed_total",
            "Jobs a worker actually started executing the pipeline for.",
        )
        self.c_completed = m.counter(
            "repro_service_jobs_completed_total",
            "Jobs finished successfully.",
        )
        self.c_failed = m.counter(
            "repro_service_jobs_failed_total",
            "Jobs finished with an error.",
        )
        self.c_timeout = m.counter(
            "repro_service_jobs_timeout_total",
            "Jobs aborted at their per-job deadline.",
        )
        self.c_cancelled = m.counter(
            "repro_service_jobs_cancelled_total",
            "Jobs cancelled (client request, queue rejection, or drain).",
        )
        self.c_warm = m.counter(
            "repro_service_jobs_warm_hits_total",
            "Completed jobs fully served from the artifact store.",
        )
        self.c_worker_restarts = m.counter(
            "repro_service_worker_restarts_total",
            "Worker processes respawned after a crash or hard kill.",
        )
        self.c_http = m.counter(
            "repro_service_http_requests_total",
            "HTTP requests handled.",
        )
        self.c_http_errors = m.counter(
            "repro_service_http_errors_total",
            "HTTP responses with status >= 400.",
        )
        self.g_queue_depth = m.gauge(
            "repro_service_queue_depth", "Jobs currently queued."
        )
        self.g_queue_capacity = m.gauge(
            "repro_service_queue_capacity", "Configured queue depth cap."
        )
        self.g_workers = m.gauge(
            "repro_service_workers", "Configured worker threads."
        )
        self.g_busy = m.gauge(
            "repro_service_workers_busy", "Workers executing a job now."
        )
        self.g_draining = m.gauge(
            "repro_service_draining", "1 while shutdown drain is underway."
        )
        self.h_job = m.histogram(
            "repro_service_job_seconds",
            "End-to-end execution seconds of completed jobs.",
        )
        self.h_instr1 = m.histogram(
            "repro_service_stage_instr1_seconds",
            "Instrumentation I seconds (or stage-1 artifact decode).",
        )
        self.h_instr2 = m.histogram(
            "repro_service_stage_instr2_fold_seconds",
            "Instrumentation II + folding seconds (or stage-2 decode).",
        )
        self.h_feedback = m.histogram(
            "repro_service_stage_feedback_seconds",
            "Feedback/planning seconds.",
        )
        # request-latency breakdown, derived from job timestamps and
        # the stitched span forest rather than ad-hoc stopwatches
        self.h_queue_wait = m.histogram(
            "repro_service_queue_wait_seconds",
            "Seconds between submission and a worker claiming the job.",
        )
        self.h_worker_exec = m.histogram(
            "repro_service_worker_exec_seconds",
            "Wall seconds a worker slot owned the job (incl. pipe "
            "transit in process mode).",
        )
        self.g_queue_capacity.set(self.config.queue_depth)
        self.g_workers.set(self.config.workers)

    def render_metrics(self) -> str:
        text = self.metrics.render()
        # topology block: execution mode, per-worker process pids and
        # restart counts (the registry has no label support, so labeled
        # lines are hand-rendered like the store stats block below)
        lines = []
        name = "repro_service_execution_info"
        lines.append(
            f"# HELP {name} Execution mode this daemon runs with."
        )
        lines.append(f"# TYPE {name} gauge")
        lines.append(f'{name}{{mode="{self.config.execution}"}} 1')
        if self._process_workers:
            for metric, attr, help_text in (
                ("repro_service_worker_pid", "pid",
                 "Current pid of each worker process."),
                ("repro_service_worker_restarts", "restarts",
                 "Respawns of each worker process slot."),
            ):
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} gauge")
                for w in self._process_workers:
                    value = getattr(w, attr)
                    lines.append(
                        f'{metric}{{worker="{w.index}"}} '
                        f"{value if value is not None else -1}"
                    )
        text += "\n".join(lines) + "\n"
        if self.store is not None:
            s = self.store.stats.as_dict()
            lines = []
            for field in ("hits", "misses", "puts", "evictions", "errors"):
                name = f"repro_service_store_{field}"
                lines.append(
                    f"# HELP {name} Artifact store {field} "
                    "(this process's shared handle)."
                )
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {s[field]}")
            text += "\n".join(lines) + "\n"
        return text

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, spawn workers and the server thread; returns (host, port)."""
        handler = _make_handler(self)

        self._server = _Server((self.config.host, self.config.port), handler)
        host, port = self._server.server_address[:2]
        self.host, self.port = host, int(port)
        if self.config.execution == "process":
            # fork the pool before any worker/server thread exists so
            # the children never inherit a mid-transaction lock
            from .procpool import ProcessWorker

            for i in range(self.config.workers):
                worker = ProcessWorker(
                    i,
                    cache_dir=self.config.cache_dir,
                    cache_max_bytes=self.config.cache_max_bytes,
                    on_restart=self._on_worker_restart,
                    on_store_stats=self._merge_store_stats,
                    logger=self.logger.bind(procpool=i),
                )
                worker.spawn()
                self._process_workers.append(worker)
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-worker-{i}",
                daemon=True,
            )
            t.start()
            self._worker_threads.append(t)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-http",
            daemon=True,
        )
        self._server_thread.start()
        self.logger.info(
            "service_started",
            host=self.host,
            port=self.port,
            workers=self.config.workers,
            execution=self.config.execution,
            queue_depth=self.config.queue_depth,
            cache_dir=self.config.cache_dir,
        )
        return self.host, self.port

    def _on_worker_restart(self, index: int) -> None:
        self.c_worker_restarts.inc()

    def _merge_store_stats(self, delta: dict) -> None:
        """Fold a worker process's per-job store counter delta into
        this daemon's handle so /metrics and /healthz keep describing
        the cache work done on this daemon's behalf."""
        if self.store is not None:
            self.store.merge_stats(delta)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting work and cancel everything still queued."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.g_draining.set(1)
        pending = self.queue.drain()
        for job in pending:
            if job.transition((JobState.QUEUED,), JobState.CANCELLED):
                job.error = "cancelled: service draining"
        self.g_queue_depth.set(0)
        self.logger.info("drain_begun", cancelled_queued=len(pending))

    def shutdown(self, grace: Optional[float] = None) -> bool:
        """Drain and stop.  Returns True when every in-flight job
        finished inside the grace window (False = jobs were
        cooperatively cancelled)."""
        grace = self.config.drain_grace if grace is None else grace
        self.begin_drain()
        deadline = time.monotonic() + grace
        clean = True
        for t in self._worker_threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(t.is_alive() for t in self._worker_threads):
            clean = False
            # past the grace window: ask in-flight jobs to stop
            for job in list(self._current_jobs.values()):
                if job is not None:
                    job.cancel_event.set()
            for t in self._worker_threads:
                t.join(timeout=10.0)
        self._stop_workers.set()
        for worker in self._process_workers:
            if any(t.is_alive() for t in self._worker_threads):
                # a wedged worker thread may still own this pipe;
                # terminate without touching the protocol
                worker.kill()
            else:
                worker.stop()
        if self._server is not None:
            self._server.shutdown()
            if self._server_thread is not None:
                self._server_thread.join(timeout=10.0)
            self._server.server_close()
            self._server.close_connections()
        self.logger.info("service_stopped", clean_drain=clean)
        return clean

    def run(self) -> int:
        """CLI loop: start, wait for SIGTERM/SIGINT, drain, exit 0."""
        stop = threading.Event()

        def _on_signal(signum, frame):
            self.logger.info("signal_received", signum=signum)
            stop.set()

        old_term = signal.signal(signal.SIGTERM, _on_signal)
        old_int = signal.signal(signal.SIGINT, _on_signal)
        try:
            host, port = self.start()
            print(
                f"repro.service listening on http://{host}:{port} "
                f"({self.config.workers} worker(s), "
                f"queue depth {self.config.queue_depth}, "
                f"cache {self.config.cache_dir or 'off'})",
                flush=True,
            )
            while not stop.wait(0.2):
                pass
            self.shutdown()
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
        print("repro.service drained and stopped", flush=True)
        return 0

    # -- submission ------------------------------------------------------------

    def next_request_id(self) -> str:
        with self._request_seq_lock:
            self._request_seq += 1
            return f"r{self._request_seq:06d}"

    def _build_spec(self, body: dict):
        """(spec, workload_name, inline) from a submission body."""
        return build_spec(body)

    def _build_options(self, body: dict):
        return build_options(
            body, default_timeout=self.config.default_timeout
        )

    def submit(
        self, body: dict, trace: Optional[dict] = None
    ) -> Tuple[Job, bool, Optional[int]]:
        """Returns (job, deduplicated, queue_position).  Raises
        :class:`BadRequest`, :class:`Draining`, or
        :class:`~repro.service.queue.QueueFull`.

        ``trace`` is the distributed trace context
        (:meth:`~repro.obs.context.TraceContext.as_dict`) the request
        arrived under; None mints a fresh one, so every job runs under
        *some* trace.  A deduplicated submission keeps the existing
        job's trace -- the work only ran once, under the first
        requester's identity.
        """
        if self._draining.is_set():
            raise Draining()
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        if trace is None:
            trace = new_trace_context().as_dict()
        points = sweep_points(body)
        if points is not None:
            return self._submit_sweep(body, points, trace)
        spec, workload, inline = self._build_spec(body)
        options = self._build_options(body)
        key = derive_job_key(spec, options)
        self.c_submitted.inc()

        def factory(job_id: str) -> Job:
            return Job(
                id=job_id,
                key=key,
                workload=workload,
                spec=spec,
                options=options,
                inline=inline,
                bindings=body.get("bindings"),
                trace=dict(trace),
                on_transition=self._count_transition,
            )

        job, deduped = self.registry.submit(key, factory)
        if deduped:
            self.c_deduped.inc()
            return job, True, self.queue.position(job)
        try:
            position = self.queue.put(job)
        except QueueFull:
            # the job never ran; mark it so the key can be retried
            if job.transition((JobState.QUEUED,), JobState.CANCELLED):
                job.error = "rejected: queue full"
            self.c_rejected.inc()
            raise
        self.g_queue_depth.set(len(self.queue))
        return job, False, position

    def _submit_sweep(
        self, body: dict, points: list, trace: dict
    ) -> Tuple[Job, bool, Optional[int]]:
        """Submit one sweep parent plus its fanned-out point children.

        The parent's key is derived from the per-point job keys alone
        (:func:`derive_sweep_key`), so two sweeps over the same points
        coalesce no matter what happened to their children.  Children
        are submitted through the ordinary :meth:`submit` path *before*
        the parent is queued: the FIFO queue then analyzes the points
        first and warms the shared store, turning the parent's merge
        pass into decode work.  A child bounced by a full queue is
        tolerated silently -- the parent computes that point itself.

        Children inherit the parent's trace context *verbatim* (not a
        derived child context): each child's root spans parent under
        the same front-door span, so the whole fan-out stitches into
        one trace with one span forest per executing process.
        """
        options = self._build_options(body)
        workload = body["workload"]
        child_keys = [
            derive_job_key(build_spec(child_body(body, point))[0], options)
            for point in points
        ]
        key = derive_sweep_key(child_keys)
        self.c_submitted.inc()

        def factory(job_id: str) -> Job:
            return Job(
                id=job_id,
                key=key,
                workload=workload,
                spec=None,
                options=options,
                inline=False,
                sweep_points=[dict(p) for p in points],
                trace=dict(trace),
                on_transition=self._count_transition,
            )

        job, deduped = self.registry.submit(key, factory)
        if deduped:
            self.c_deduped.inc()
            return job, True, self.queue.position(job)
        if self.store is not None:
            # fan-out is a cache-warming optimization: without a shared
            # store the children's work cannot reach the parent, so
            # they would only double the sweep's cost
            for point in points:
                try:
                    child, _, _ = self.submit(
                        child_body(body, point), trace=trace
                    )
                    job.sweep_children.append(child.id)
                except QueueFull:
                    pass
        try:
            position = self.queue.put(job)
        except QueueFull:
            if job.transition((JobState.QUEUED,), JobState.CANCELLED):
                job.error = "rejected: queue full"
            self.c_rejected.inc()
            raise
        self.g_queue_depth.set(len(self.queue))
        return job, False, position

    def cancel(self, job: Job) -> Job:
        """Cancel a queued job outright; ask a running one to stop."""
        if job.transition((JobState.QUEUED,), JobState.CANCELLED):
            job.error = "cancelled by client"
            self.queue.remove(job)
            self.g_queue_depth.set(len(self.queue))
        else:
            job.cancel_event.set()
        return job

    def _count_transition(self, job: Job, state: str) -> None:
        """Count a job's state change; :meth:`Job.transition` calls this
        before the new state is visible to any client."""
        if state == JobState.RUNNING:
            self.c_executed.inc()
            self.h_queue_wait.observe(
                max(0.0, job.started_at - job.created_at)
            )
        elif state == JobState.DONE:
            self.c_completed.inc()
            # every histogram below is read off the job's span tree:
            # total_seconds is the root span, the stage timings are
            # StageTimings.from_span_tree views
            self.h_job.observe(job.total_seconds or 0.0)
            self.h_instr1.observe(job.timings.get("instr1", 0.0))
            self.h_instr2.observe(job.timings.get("instr2_fold", 0.0))
            self.h_feedback.observe(job.timings.get("feedback", 0.0))
            if job.cache_hit:
                self.c_warm.inc()
        elif state == JobState.TIMEOUT:
            self.c_timeout.inc()
        elif state == JobState.CANCELLED:
            self.c_cancelled.inc()
        elif state == JobState.FAILED:
            self.c_failed.inc()

    # -- workers ---------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        log = self.logger.bind(worker=index)
        while not self._stop_workers.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self._draining.is_set():
                    break
                continue
            self.g_queue_depth.set(len(self.queue))
            if job.cancel_event.is_set():
                if job.transition((JobState.QUEUED,), JobState.CANCELLED):
                    job.error = "cancelled before execution"
                continue
            self._current_jobs[index] = job
            self.g_busy.inc()
            log.info(
                "job_start",
                job_id=job.id,
                workload=job.workload,
                trace_id=job.trace_id,
            )
            started_before = job.started_at
            claimed_at = time.monotonic()
            try:
                if self._process_workers and job.sweep_points is None:
                    self._process_workers[index].run_job(job)
                else:
                    # sweep parents always run thread-side: their
                    # per-point work is already fanned out to child
                    # jobs, and the merge is decode-bound
                    execute_job(job, store=self.store, logger=log)
            except BaseException as exc:
                # the executor contract is "never raises"; anything
                # that escapes anyway must not leave the job `running`
                # forever (the pre-procpool worker-crash leak)
                job.error = f"worker_crashed: {exc!r}"
                job.crash = {
                    "kind": "worker_crashed",
                    "worker": index,
                    "detail": repr(exc),
                }
                job.transition(
                    (JobState.QUEUED, JobState.RUNNING), JobState.FAILED
                )
                self.c_worker_restarts.inc()
                log.error(
                    "job_worker_crashed", job_id=job.id, error=repr(exc)
                )
            if job.started_at is not None and started_before is None:
                self.h_worker_exec.observe(time.monotonic() - claimed_at)
            if job.span_docs and job.trace_id:
                self.traces.add(
                    job.trace_id,
                    source="daemon",
                    spans=job.span_docs,
                    pid=job.exec_pid,
                    clock=job.clock,
                    job_id=job.id,
                )
            self.g_busy.dec()
            self._current_jobs[index] = None
            log.info(
                "job_end",
                job_id=job.id,
                state=job.state,
                seconds=round(job.total_seconds or job.wall_seconds() or 0.0, 6),
                cache_hit=job.cache_hit,
                trace_id=job.trace_id,
            )

    # -- health ----------------------------------------------------------------

    def health_doc(self) -> dict:
        doc = {
            "version": SERVICE_API_VERSION,
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "workers": self.config.workers,
            "execution": self.config.execution,
            "busy": int(self.g_busy.value),
            "queue_depth": len(self.queue),
            "queue_capacity": self.config.queue_depth,
            "jobs": self.registry.counts(),
            "store": (
                self.store.stats.as_dict() if self.store is not None else None
            ),
        }
        if self._process_workers:
            doc["process_workers"] = [
                {
                    "worker": w.index,
                    "pid": w.pid,
                    "alive": w.alive(),
                    "restarts": w.restarts,
                    "jobs_executed": w.jobs_executed,
                }
                for w in self._process_workers
            ]
        return doc

    # -- traces ----------------------------------------------------------------

    def trace_doc(self, trace_id: str) -> Optional[dict]:
        """The stitched Chrome trace of one request, or None if this
        daemon retained no segment of it."""
        segments = self.traces.get(trace_id)
        if segments is None:
            return None
        return merged_trace_document(segments, trace_id=trace_id)


# -- the HTTP layer -----------------------------------------------------------------


def job_trace_doc(job: Job) -> dict:
    """The ``/v1/jobs/{id}/trace`` document of a finished job: the
    Chrome trace of the span forest it executed, in the executing
    process's pid lane.  Rendered on fetch from the same span dicts
    the stitched ``/v1/traces/{trace_id}`` reads, so the worker never
    renders a trace that nobody asks for."""
    name = job.spec.name if job.spec is not None else job.workload
    return chrome_trace_document(
        job.span_docs or [], workload=name, pid=job.exec_pid
    )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog of 5 drops SYNs under a
    # burst of concurrent clients; each dropped SYN costs that client a
    # ~1s kernel retransmit
    request_queue_size = 128

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._conns: set = set()
        self._conns_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open keep-alive connection: a handler thread
        blocked reading a client's next request sees EOF and exits, so
        a stopped daemon answers nothing more on old connections."""
        with self._conns_lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def _make_handler(service: AnalysisService):
    """A :class:`BaseHTTPRequestHandler` subclass closed over one
    service instance (ThreadingHTTPServer instantiates it per
    connection)."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps a connection (and its handler thread) open
        # across requests.  The headers and the body of a response go
        # out in two writes; with Nagle's algorithm on, the second
        # waits for the client's delayed ACK of the first, ~40 ms per
        # response on a reused connection.
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        server_version = f"repro-service/{SERVICE_API_VERSION}"

        def handle(self) -> None:
            try:
                super().handle()
            except ConnectionError:
                # the client reset its keep-alive connection between
                # requests; there is no one to answer
                pass

        # route BaseHTTPRequestHandler's own stderr chatter into the
        # structured log (it writes tracebacks for client disconnects
        # otherwise)
        def log_message(self, format: str, *args) -> None:
            service.logger.debug("http_server", message=format % args)

        def log_error(self, format: str, *args) -> None:
            service.logger.warning("http_server_error", message=format % args)

        # -- plumbing ----------------------------------------------------------

        def _send(
            self,
            code: int,
            body: bytes,
            content_type: str = "application/json",
            headers: Optional[dict] = None,
        ) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            # count before writing: a client that reads this response
            # and immediately polls /metrics must see the increment
            service.c_http.inc()
            if code >= 400:
                service.c_http_errors.inc()
            self.end_headers()
            self.wfile.write(body)

        def _send_doc(
            self, code: int, doc: dict, headers: Optional[dict] = None
        ) -> None:
            body = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
            self._send(code, body, headers=headers)

        def _error(
            self, code: int, message: str, headers: Optional[dict] = None,
            **extra,
        ) -> None:
            doc = {"version": SERVICE_API_VERSION, "error": message}
            doc.update(extra)
            self._send_doc(code, doc, headers=headers)

        def _internal_error(self) -> None:
            # the request may be partly read, so the stream is no longer
            # at a request boundary: answer 500 and end the connection
            self.close_connection = True
            try:
                self._error(
                    500, "internal error", headers={"Connection": "close"}
                )
            except Exception:
                pass

        def _read_raw(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length else b""

        def _read_body(self) -> dict:
            raw = self._read_raw()
            if not raw:
                raise BadRequest("empty request body")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise BadRequest(f"request body is not JSON: {exc}") from exc

        # -- routes ------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
            rid = service.next_request_id()
            t0 = time.monotonic()
            path = urlsplit(self.path).path
            self._trace_id = None  # set once a handler learns it
            try:
                if path == "/healthz":
                    doc = service.health_doc()
                    self._send_doc(503 if service.draining else 200, doc)
                elif path == "/metrics":
                    self._send(
                        200,
                        service.render_metrics().encode("utf-8"),
                        content_type="text/plain; version=0.0.4",
                    )
                else:
                    match = _TRACE_PATH.match(path)
                    if match is not None:
                        self._trace_get(match.group("id"))
                    else:
                        match = _JOB_PATH.match(path)
                        if match is None:
                            self._error(404, f"no route for {path}")
                        elif match.group("sub") == "cancel":
                            self._error(405, "cancel requires POST")
                        else:
                            self._job_get(
                                match.group("id"), match.group("sub")
                            )
            except BrokenPipeError:  # client went away; nothing to send
                pass
            except Exception as exc:
                service.logger.error(
                    "request_failed", request_id=rid, path=path,
                    error=repr(exc),
                )
                self._internal_error()
            finally:
                fields = {}
                if self._trace_id:
                    fields["trace_id"] = self._trace_id
                service.logger.info(
                    "http_request",
                    request_id=rid,
                    method="GET",
                    path=path,
                    seconds=round(time.monotonic() - t0, 6),
                    **fields,
                )

        def _trace_get(self, trace_id: str) -> None:
            self._trace_id = trace_id
            doc = service.trace_doc(trace_id)
            if doc is None:
                self._error(404, f"unknown trace {trace_id!r}")
            else:
                self._send_doc(200, doc)

        def _job_get(self, job_id: str, sub: Optional[str]) -> None:
            job = service.registry.get(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
                return
            self._trace_id = job.trace_id
            if sub is None:
                doc = job.status_doc(SERVICE_API_VERSION)
                position = service.queue.position(job)
                if position is not None:
                    doc["queue_position"] = position
                self._send_doc(200, doc)
                return
            if job.state != JobState.DONE:
                self._error(
                    409,
                    f"job {job_id} has no artifacts "
                    f"(state: {job.state})",
                    state=job.state,
                    job_error=job.error,
                )
                return
            if sub == "trace":
                self._send_doc(200, job_trace_doc(job))
                return
            payload = {
                "report": job.report_json,
                "metrics": job.metrics_json,
                "flamegraph": job.flamegraph_svg,
            }[sub]
            if payload is None:
                # sweep jobs have no per-run metrics/flamegraph
                self._error(
                    404, f"job {job_id} has no {sub} artifact"
                )
            elif sub == "flamegraph":
                self._send(200, payload, content_type="image/svg+xml")
            else:
                self._send(200, payload)

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
            rid = service.next_request_id()
            t0 = time.monotonic()
            path = urlsplit(self.path).path
            status = "ok"
            self._trace_id = None
            try:
                if path == "/v1/analyze":
                    self._analyze(rid)
                else:
                    # no other route reads a body; consume it so the
                    # next request on this connection parses cleanly
                    self._read_raw()
                    match = _JOB_PATH.match(path)
                    if match is not None and match.group("sub") == "cancel":
                        job = service.registry.get(match.group("id"))
                        if job is None:
                            self._error(
                                404, f"unknown job {match.group('id')!r}"
                            )
                        else:
                            self._trace_id = job.trace_id
                            service.cancel(job)
                            self._send_doc(
                                200, job.status_doc(SERVICE_API_VERSION)
                            )
                    else:
                        self._error(404, f"no route for POST {path}")
            except BrokenPipeError:
                status = "disconnect"
            except Exception as exc:
                status = "error"
                service.logger.error(
                    "request_failed", request_id=rid, path=path,
                    error=repr(exc),
                )
                self._internal_error()
            finally:
                fields = {}
                if self._trace_id:
                    fields["trace_id"] = self._trace_id
                service.logger.info(
                    "http_request",
                    request_id=rid,
                    method="POST",
                    path=path,
                    status=status,
                    seconds=round(time.monotonic() - t0, 6),
                    **fields,
                )

        def _analyze(self, request_id: str) -> None:
            # front door of the distributed trace: adopt the caller's
            # traceparent (a CLI client, an upstream service) or mint a
            # fresh context; a malformed header degrades to minting,
            # never to a 4xx
            ctx = TraceContext.from_traceparent(
                self.headers.get("traceparent")
            )
            if ctx is None:
                ctx = new_trace_context()
            self._trace_id = ctx.trace_id
            try:
                body = self._read_body()
                job, deduped, position = service.submit(
                    body, trace=ctx.as_dict()
                )
            except BadRequest as exc:
                self._error(400, str(exc))
                return
            except Draining:
                self._error(
                    503, "service is draining; resubmit elsewhere",
                    headers={"Retry-After": "10"},
                )
                return
            except QueueFull as exc:
                self._error(
                    429,
                    f"queue full ({exc.depth} job(s) pending); retry later",
                    headers={"Retry-After": "1"},
                )
                return
            # a dedup hit keeps the existing job's trace: report the
            # trace that actually covers the work, not the minted one
            self._trace_id = job.trace_id or ctx.trace_id
            doc = {
                "version": SERVICE_API_VERSION,
                "job": job.id,
                "key": job.key,
                "workload": job.workload,
                "state": job.state,
                "deduplicated": deduped,
                "trace_id": self._trace_id,
            }
            if position is not None:
                doc["queue_position"] = position
            service.logger.info(
                "job_submitted",
                request_id=request_id,
                job_id=job.id,
                workload=job.workload,
                deduplicated=deduped,
                trace_id=self._trace_id,
            )
            self._send_doc(200 if deduped else 202, doc)

    return Handler


def serve(config: ServiceConfig) -> int:
    """Blocking entry point used by ``repro serve``."""
    return AnalysisService(config).run()
