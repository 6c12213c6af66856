"""Chrome trace-event export and its schema validator.

Serializes a span forest into the Trace Event Format (the JSON
``chrome://tracing`` / Perfetto load directly): one complete ``"X"``
event per span with microsecond ``ts``/``dur``, plus ``"M"`` metadata
events naming the process and threads.  The exporter emits **only**
``X`` and ``M`` events -- no ``B``/``E`` pairs to mismatch -- and sorts
by ``ts``, which :func:`validate_chrome_trace` (used by the CI trace
job and the tests) enforces along with the rest of the schema.

Two document shapes share the schema:

* :func:`chrome_trace_document` -- one process's span forest (the
  ``/trace`` job artifact and ``repro trace``'s export): a single pid.
* :func:`merged_trace_document` -- one *request's* forest stitched
  from segments collected across the daemon and its worker
  processes (``GET /v1/traces/{trace_id}``): one pid lane per
  (source, pid), timelines aligned through per-segment wall-clock
  anchors (:func:`repro.obs.collect.clock_anchor`).  Validate these
  with ``multi_process=True``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .tracer import Span

__all__ = [
    "chrome_trace_document",
    "merged_trace_document",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: schema of the ``otherData`` envelope this exporter stamps
CHROME_TRACE_FORMAT_VERSION = 2


def _span_forest(spans: Sequence[Union[Span, dict]]) -> List[Span]:
    return [
        s if isinstance(s, Span) else Span.from_dict(s) for s in spans
    ]


def _event_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(span.args)
    if span.counters:
        args.update(span.counters)
    if span.mem_delta is not None:
        args["mem_delta_bytes"] = span.mem_delta
    if span.mem_peak is not None:
        args["mem_peak_bytes"] = span.mem_peak
    return args


def chrome_trace_document(
    spans: Sequence[Union[Span, dict]],
    workload: str = "",
    pid: Optional[int] = None,
) -> Dict[str, Any]:
    """Build the Trace Event Format document for a span forest.

    ``spans`` may be live :class:`Span` roots or their ``to_dict``
    exports (what the suite runner ships).  ``ts`` is microseconds
    relative to the earliest span start, so traces from different
    processes all start near zero.
    """
    roots = _span_forest(spans)
    pid = os.getpid() if pid is None else pid
    origin = min((r.t0 for r in roots), default=0.0)

    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for root in roots:
        for _, span in root.walk():
            tid = tids.setdefault(span.tid or "main", len(tids) + 1)
            args = _event_args(span)
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": round((span.t0 - origin) * 1e6, 3),
                    "dur": round(max(span.duration, 0.0) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    events.sort(key=lambda e: (e["ts"], -e["dur"]))

    meta: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro analyzer ({workload or 'trace'})"},
        }
    ]
    for tname, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname},
            }
        )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format_version": CHROME_TRACE_FORMAT_VERSION,
            "workload": workload,
            "generator": "repro.obs",
        },
    }


def merged_trace_document(
    segments: Sequence[Dict[str, Any]],
    trace_id: str = "",
) -> Dict[str, Any]:
    """Stitch span segments from many processes into one trace document.

    ``segments`` are :class:`~repro.obs.collect.TraceCollector` entries:
    ``{"source", "pid", "spans", "clock"?, "job_id"?}``.  Every distinct
    (source, pid) becomes its own Perfetto process lane (a synthetic
    document pid with a ``process_name`` naming the real source and
    pid), and each span's recording thread becomes a named thread lane
    within it.

    Timelines from different processes are aligned when **every**
    segment carries a wall-clock anchor
    (:func:`repro.obs.collect.clock_anchor`): each span time is rebased
    to the epoch via its segment's anchor, then to the earliest span of
    the whole trace, so queue waits and forward hops show up as real
    gaps.  If any segment lacks an anchor, all segments fall back to
    their own local origin (lanes all start at zero -- still valid,
    just not mutually ordered).
    """
    groups: "Dict[Tuple[str, Any], List[dict]]" = {}
    order: List[Tuple[str, Any]] = []
    for seg in segments:
        key = (str(seg.get("source") or "unknown"), seg.get("pid"))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(seg)

    aligned = bool(segments) and all(
        isinstance(seg.get("clock"), dict)
        and "epoch" in seg["clock"]
        and "perf" in seg["clock"]
        for seg in segments
    )
    # per-segment offset turning a perf_counter second into an epoch
    # second (identity-shaped fallback keeps one code path below)
    forests: List[Tuple[int, float, List[Span]]] = []  # (lane, off, roots)
    sources: List[Dict[str, Any]] = []
    for lane, key in enumerate(order, start=1):
        source, pid = key
        sources.append({"lane": lane, "source": source, "pid": pid})
        for seg in groups[key]:
            roots = _span_forest(seg.get("spans") or [])
            if not roots:
                continue
            if aligned:
                clock = seg["clock"]
                offset = float(clock["epoch"]) - float(clock["perf"])
            else:
                offset = -min(r.t0 for r in roots)
            forests.append((lane, offset, roots))

    origin = min(
        (r.t0 + offset for _, offset, roots in forests for r in roots),
        default=0.0,
    )

    events: List[Dict[str, Any]] = []
    meta: List[Dict[str, Any]] = []
    for lane, key in enumerate(order, start=1):
        source, pid = key
        label = source if pid is None else f"{source} (pid {pid})"
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": lane,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for lane, offset, roots in forests:
        tids: Dict[str, int] = {}
        for root in roots:
            for _, span in root.walk():
                tids.setdefault(span.tid or "main", len(tids) + 1)
        for tname, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": lane,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )
        for root in roots:
            for _, span in root.walk():
                args = _event_args(span)
                if span.span_id:
                    args["span_id"] = span.span_id
                if span.parent_id:
                    args["parent_id"] = span.parent_id
                events.append(
                    {
                        "name": span.name,
                        "cat": span.cat,
                        "ph": "X",
                        "ts": round(
                            max(span.t0 + offset - origin, 0.0) * 1e6, 3
                        ),
                        "dur": round(max(span.duration, 0.0) * 1e6, 3),
                        "pid": lane,
                        "tid": tids[span.tid or "main"],
                        "args": args,
                    }
                )
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format_version": CHROME_TRACE_FORMAT_VERSION,
            "trace_id": trace_id,
            "generator": "repro.obs",
            "aligned_clocks": aligned,
            "sources": sources,
        },
    }


def write_chrome_trace(
    path: str,
    spans: Sequence[Union[Span, dict]],
    workload: str = "",
) -> Dict[str, Any]:
    """Validate and write the trace document; returns it."""
    doc = chrome_trace_document(spans, workload=workload)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: Any, multi_process: bool = False) -> int:
    """Schema-check a trace document; returns the number of timed
    events.  Raises :class:`ValueError` with a pointed message on the
    first problem found.

    Enforced (what Perfetto/catapult actually require plus our own
    emission invariants): a ``traceEvents`` list of dicts; every event
    has ``ph``/``pid``/``tid``; a single ``pid`` across the document
    (unless ``multi_process=True`` -- stitched multi-lane documents
    from :func:`merged_trace_document`); ``X`` events carry numeric
    non-negative ``ts``/``dur`` in non-decreasing ``ts`` order; any
    ``B``/``E`` events pair up properly nested per thread; every pid
    with timed events has a ``process_name`` metadata event and every
    (pid, tid) a timed event runs on has a ``thread_name`` -- without
    them Perfetto renders anonymous lanes."""
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    pids = set()
    last_ts: Optional[float] = None
    open_be: Dict[Any, List[str]] = {}
    timed = 0
    named_pids = set()
    named_threads = set()
    timed_pids = set()
    timed_threads = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"event #{i} has no phase 'ph'")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                raise ValueError(f"event #{i} has no integer {field!r}")
        pids.add(ev["pid"])
        if ph == "M":
            if ev.get("name") == "process_name":
                named_pids.add(ev["pid"])
            elif ev.get("name") == "thread_name":
                named_threads.add((ev["pid"], ev["tid"]))
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(f"event #{i} has no name")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event #{i} has invalid ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event #{i} ts {ts} goes backwards (prev {last_ts})"
            )
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event #{i} has invalid dur {dur!r}")
            timed += 1
            timed_pids.add(ev["pid"])
            timed_threads.add((ev["pid"], ev["tid"]))
        elif ph == "B":
            open_be.setdefault(ev["tid"], []).append(ev["name"])
            timed += 1
            timed_pids.add(ev["pid"])
            timed_threads.add((ev["pid"], ev["tid"]))
        elif ph == "E":
            stack = open_be.get(ev["tid"]) or []
            if not stack:
                raise ValueError(
                    f"event #{i}: 'E' for {ev['name']!r} with no open 'B'"
                )
            stack.pop()
        # other phases (counters, instants, ...) are allowed untimed
    for tid, stack in open_be.items():
        if stack:
            raise ValueError(
                f"thread {tid}: unclosed 'B' event(s) {stack!r}"
            )
    if not multi_process and len(pids) != 1:
        raise ValueError(f"expected one stable pid, saw {sorted(pids)}")
    if timed == 0:
        raise ValueError("trace has no timed events")
    unnamed_pids = timed_pids - named_pids
    if unnamed_pids:
        raise ValueError(
            "pid(s) without a process_name metadata event: "
            f"{sorted(unnamed_pids)}"
        )
    unnamed_threads = timed_threads - named_threads
    if unnamed_threads:
        raise ValueError(
            "(pid, tid) lane(s) without a thread_name metadata event: "
            f"{sorted(unnamed_threads)}"
        )
    return timed
