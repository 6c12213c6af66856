"""Jobs and the deduplicating job registry.

A **job** is one analysis request flowing through the daemon: it is
created by the HTTP front door, waits in the bounded queue, is executed
by a worker, and then lingers (with its rendered artifacts) so clients
can poll results and identical future requests can coalesce onto it.

Deduplication is **content-addressed**: the job key is derived from the
same program/state fingerprints and pipeline options the artifact store
keys artifacts by (:mod:`repro.store.keys`), extended with the
feedback-affecting options the store does not care about.  Two requests
with the same key are *the same work* by construction -- whichever
arrives second (while the first is queued, running, or completed and
retained) gets the first one's job id instead of a new execution.

Retention is a least-recently-submitted cap over *terminal* jobs: the
registry remembers at most ``retain`` finished jobs, and a submission
that coalesces onto a job refreshes it, so the job a client was just
handed is evicted last.  Evicting a job also drops its dedup index
entry, so a re-submission after eviction simply runs again (and, with
a store attached, hits the artifact cache).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"

    TERMINAL = frozenset((DONE, FAILED, TIMEOUT, CANCELLED))


@dataclass
class JobOptions:
    """The pipeline/feedback options one submission carries."""

    crosscheck: bool = False
    clamp: Optional[int] = None
    fuel: int = 50_000_000
    timeout: Optional[float] = None
    #: fold worker processes for stage 2 (bounded by the service's
    #: fold-jobs cap at submission time; 1 = serial in-process fold)
    fold_jobs: int = 1
    #: baseline program fingerprint for incremental re-analysis
    #: (``baseline_fingerprint`` on POST /v1/analyze); None = cold
    baseline: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "crosscheck": self.crosscheck,
            "clamp": self.clamp,
            "fuel": self.fuel,
            "timeout": self.timeout,
            "fold_jobs": self.fold_jobs,
            "baseline": self.baseline,
        }


def derive_job_key(spec, options: JobOptions) -> str:
    """Content-addressed identity of one (workload, options) request.

    Builds on the artifact store's stage-2 key (program + state
    fingerprints + pipeline options), then folds in the options that
    change the *response* but not the cached artifacts.  ``timeout`` is
    deliberately excluded: it bounds how long we wait, not what is
    computed.  ``fold_jobs`` is excluded for the same reason: serial
    and parallel folds are bit-identical (:mod:`repro.parallel`), so a
    ``fold_jobs=4`` request rightly coalesces onto an identical
    ``fold_jobs=1`` job and vice versa.  ``baseline`` is excluded too:
    incremental and cold runs of the same program produce byte-identical
    artifacts, so an incremental request rightly coalesces onto a cold
    job of the same program and vice versa.
    """
    from ..store import keys_for_spec

    keys = keys_for_spec(
        spec,
        fuel=options.fuel,
        max_pieces=6,
        clamp=options.clamp,
        track_anti_output=True,
        build_schedule_tree=True,
    )
    raw = f"{keys.stage2}|crosscheck={options.crosscheck}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def derive_sweep_key(child_keys) -> str:
    """Content-addressed identity of one sweep request: the sorted
    set of its per-point job keys.  Each child key already binds the
    workload, that point's input state, and every response-affecting
    option, so two sweeps with the same points and options coalesce
    regardless of submission order -- on the daemon (dedup) and on the
    router (replica choice) alike."""
    raw = "sweep|" + "|".join(sorted(child_keys))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One analysis request and (eventually) its artifacts."""

    id: str
    key: str
    workload: str
    spec: object  # ProgramSpec; kept so the executing worker needs no re-resolve
    options: JobOptions
    inline: bool = False
    #: input-size bindings of a registry workload (``bindings`` on
    #: POST /v1/analyze); None = the registry defaults
    bindings: Optional[dict] = None
    #: canonical sweep points of a sweep *parent* job (``sweep`` on
    #: POST /v1/analyze); None = an ordinary single-input job
    sweep_points: Optional[list] = None
    #: job ids of the fanned-out per-point child jobs (best-effort:
    #: a child rejected by a full queue is simply absent -- the parent
    #: computes that point itself)
    sweep_children: List[str] = field(default_factory=list)
    #: distributed trace context (TraceContext.as_dict) this job runs
    #: under -- minted at the front door or adopted from an incoming
    #: ``traceparent`` header; sweep children carry the parent job's
    #: context verbatim so the whole fan-out stitches into one trace.
    #: A deduplicated submission keeps the *existing* job's trace.
    trace: Optional[dict] = None
    state: str = JobState.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: per-stage seconds, derived from the executing analyze() span tree
    timings: Dict[str, float] = field(default_factory=dict)
    #: span-derived end-to-end seconds (sum of the job's root spans)
    total_seconds: Optional[float] = None
    #: live execution progress (phase, dyn_instrs, updated_at), written
    #: by heartbeats while the job runs; survives into the terminal doc
    progress: Dict[str, object] = field(default_factory=dict)
    stage1_cached: bool = False
    stage2_cached: bool = False
    cache_hit: bool = False
    error: Optional[str] = None
    #: machine-readable crash record when a worker process died while
    #: it owned this job (kind/worker/detail); None for ordinary errors
    crash: Optional[dict] = None
    summary: Dict[str, int] = field(default_factory=dict)
    #: rendered artifacts (exact bytes served to clients)
    report_json: Optional[bytes] = None
    metrics_json: Optional[bytes] = None
    flamegraph_svg: Optional[bytes] = None
    trace_json: Optional[bytes] = None
    crosscheck_violations: Optional[int] = None
    #: what the incremental machinery did when the request carried a
    #: ``baseline_fingerprint`` (IncrementalInfo.as_dict); rendered
    #: artifacts stay byte-identical to a cold run, so this is the only
    #: place the incremental account surfaces
    incremental: Optional[dict] = None
    #: exported span forest (Span.to_dict docs) of the execution,
    #: attached on completion so the daemon's TraceCollector can serve
    #: the stitched timeline; stays None for inline/deduped paths
    span_docs: Optional[list] = None
    #: pid of the process that executed the spans (a pool worker for
    #: process-mode jobs, the daemon itself for thread-mode)
    exec_pid: Optional[int] = None
    #: the executing process's clock anchor (obs.collect.clock_anchor),
    #: pairing its perf_counter with the epoch for cross-process merge
    clock: Optional[dict] = None
    #: cooperative cancellation flag, checked by the deadline observer
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: guards state transitions (workers vs. cancel vs. drain)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def trace_id(self) -> Optional[str]:
        """The distributed trace id this job runs under, if any."""
        if self.trace:
            return self.trace.get("trace_id")
        return None

    def transition(self, from_states: Tuple[str, ...], to: str) -> bool:
        """Atomically move ``from_states -> to``; False if not in one."""
        with self._lock:
            if self.state not in from_states:
                return False
            self.state = to
            if to == JobState.RUNNING:
                self.started_at = time.time()
            elif to in JobState.TERMINAL:
                self.finished_at = time.time()
            return True

    def heartbeat(self, **fields) -> None:
        """Merge live progress fields (clients poll them off the status
        doc while the job runs).  Always stamps ``updated_at``."""
        fields["updated_at"] = time.time()
        with self._lock:
            self.progress.update(fields)

    def wall_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def status_doc(self, api_version: int) -> dict:
        """The ``GET /v1/jobs/{id}`` document."""
        doc = {
            "version": api_version,
            "job": self.id,
            "key": self.key,
            "workload": self.workload,
            "inline": self.inline,
            "state": self.state,
            "options": self.options.as_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds(),
            "total_seconds": self.total_seconds,
            "timings": dict(self.timings),
            "cache": {
                "stage1_cached": self.stage1_cached,
                "stage2_cached": self.stage2_cached,
                "hit": self.cache_hit,
            },
            "error": self.error,
            "trace_id": self.trace_id,
        }
        if self.bindings is not None:
            doc["bindings"] = dict(self.bindings)
        if self.sweep_points is not None:
            doc["sweep"] = {
                "points": [dict(p) for p in self.sweep_points],
                "children": list(self.sweep_children),
            }
        if self.crash is not None:
            doc["crash"] = dict(self.crash)
        with self._lock:
            if self.progress:
                doc["progress"] = dict(self.progress)
        if self.summary:
            doc["summary"] = dict(self.summary)
        if self.crosscheck_violations is not None:
            doc["crosscheck_violations"] = self.crosscheck_violations
        if self.incremental is not None:
            doc["incremental"] = dict(self.incremental)
        return doc


class JobRegistry:
    """Thread-safe id/key indexes with dedup and bounded retention."""

    def __init__(self, retain: int = 256) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.retain = retain
        self._lock = threading.Lock()
        self._by_id: "OrderedDict[str, Job]" = OrderedDict()
        self._by_key: Dict[str, Job] = {}
        self._seq = 0

    def submit(
        self, key: str, factory: Callable[[str], Job]
    ) -> Tuple[Job, bool]:
        """Register the job for ``key``, coalescing duplicates.

        Returns ``(job, deduplicated)``.  An existing queued, running,
        or successfully finished job with the same key absorbs the
        request; a failed/timed-out/cancelled one is replaced (the
        caller gets a fresh attempt).  ``factory`` builds the new job
        from its assigned id; it runs under the registry lock, so it
        must be cheap (no analysis).
        """
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None and (
                not existing.terminal or existing.state == JobState.DONE
            ):
                # the client now holds this id: retain it the longest
                self._by_id.move_to_end(existing.id)
                return existing, True
            self._seq += 1
            job_id = f"j{self._seq:06d}-{key[:8]}"
            job = factory(job_id)
            self._by_id[job_id] = job
            self._by_key[key] = job
            self._evict_locked()
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._by_id.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._by_id.values())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.jobs():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    def _evict_locked(self) -> None:
        """Drop least recently submitted *terminal* jobs beyond the
        retention cap."""
        excess = len(self._by_id) - self.retain
        if excess <= 0:
            return
        for job_id in [
            jid for jid, job in self._by_id.items() if job.terminal
        ][:excess]:
            job = self._by_id.pop(job_id)
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
