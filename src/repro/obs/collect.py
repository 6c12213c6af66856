"""Per-daemon trace retention: span segments keyed by trace id.

Every daemon keeps a :class:`TraceCollector`: after a
job finishes, its exported span forest lands here as one **segment**
-- the spans plus where they ran (``source`` label, ``pid``) and a
wall-clock anchor (:func:`clock_anchor`) that lets
:func:`repro.obs.chrometrace.merged_trace_document` align
``perf_counter`` timelines from different processes onto one axis.

Retention is LRU and byte-bounded, like the artifact store but in
memory: traces are served for post-hoc debugging
(``GET /v1/traces/{trace_id}``), not archived.  Adding a segment to a
trace refreshes the whole trace; eviction drops whole traces, oldest
first, until both the byte and the count budget hold.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

__all__ = ["TraceCollector", "clock_anchor"]


def clock_anchor() -> Dict[str, float]:
    """Pair this process's ``perf_counter`` with the wall clock.

    Spans carry ``perf_counter`` seconds, which are meaningless across
    processes; an anchor captured in the *same* process lets a merger
    rebase any span time to the epoch:
    ``epoch_of(t) = t + (anchor.epoch - anchor.perf)``.
    """
    return {"epoch": time.time(), "perf": time.perf_counter()}


class TraceCollector:
    """Thread-safe LRU of span segments, keyed by trace id."""

    def __init__(
        self,
        max_bytes: int = 16 * 1024 * 1024,
        max_traces: int = 256,
    ) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_bytes = max_bytes
        self.max_traces = max_traces
        self._lock = threading.Lock()
        #: trace_id -> list of segment dicts (insertion = arrival order)
        self._traces: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._total_bytes = 0
        self.evictions = 0

    def add(
        self,
        trace_id: str,
        source: str,
        spans: List[Dict[str, Any]],
        pid: Optional[int] = None,
        clock: Optional[Dict[str, float]] = None,
        job_id: Optional[str] = None,
    ) -> None:
        """Retain one segment: ``spans`` (Span.to_dict forest) that ran
        in process ``pid`` of ``source`` (the daemon labels its
        segments ``"daemon"``)."""
        if not trace_id or not spans:
            return
        segment: Dict[str, Any] = {
            "source": source,
            "pid": pid,
            "spans": list(spans),
        }
        if clock is not None:
            segment["clock"] = dict(clock)
        if job_id is not None:
            segment["job_id"] = job_id
        try:
            size = len(json.dumps(segment, default=str))
        except Exception:  # pragma: no cover - unserializable span args
            return
        with self._lock:
            if trace_id in self._traces:
                self._traces[trace_id].append(segment)
                self._sizes[trace_id] += size
                self._traces.move_to_end(trace_id)
            else:
                self._traces[trace_id] = [segment]
                self._sizes[trace_id] = size
            self._total_bytes += size
            self._evict_locked(keep=trace_id)

    def get(self, trace_id: str) -> Optional[List[dict]]:
        """All retained segments of a trace (refreshes recency)."""
        with self._lock:
            segments = self._traces.get(trace_id)
            if segments is None:
                return None
            self._traces.move_to_end(trace_id)
            return [dict(s) for s in segments]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def _evict_locked(self, keep: str) -> None:
        """Drop whole traces, oldest first, until budgets hold.  The
        just-touched trace is spared even when it alone exceeds the
        byte budget -- a trace we cannot retain at all would make the
        endpoint uselessly flaky."""
        while self._traces and (
            len(self._traces) > self.max_traces
            or self._total_bytes > self.max_bytes
        ):
            oldest = next(iter(self._traces))
            if oldest == keep and len(self._traces) == 1:
                break
            if oldest == keep:
                # keep must survive this round: evict the next-oldest
                ids = iter(self._traces)
                next(ids)
                oldest = next(ids)
            self._traces.pop(oldest)
            self._total_bytes -= self._sizes.pop(oldest)
            self.evictions += 1
