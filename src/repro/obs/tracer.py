"""Hierarchical span tracing: the analyzer's own profiler.

POLY-PROF's pitch is that profiling must explain *where* time and
memory go inside a structured computation -- this module applies the
same standard to the analyzer itself.  A :class:`Tracer` collects a
tree of :class:`Span`\\ s (context-manager and decorator API) with
monotonic clocks, optional attached counters, and optional memory
deltas sampled at span boundaries (a cheap RSS probe by default,
exact ``tracemalloc`` bytes on request).  The span tree is the **single
timing source** for the whole system: :class:`repro.pipeline.StageTimings`
is derived from it, the suite runner ships it across the process pool
inside :class:`~repro.runner.WorkloadResult`, and the service daemon
feeds its Prometheus stage histograms, per-job timings, and progress
heartbeats from it.

Design constraints, in order:

* **Disabled must be free.**  ``Tracer(enabled=False)`` (or the shared
  :data:`NULL_TRACER`) hands out one preallocated no-op context
  manager; entering it does no clock read, no allocation, no lock.
  ``benchmarks/bench_obs.py`` gates the disabled path at <= 5% end-to-end
  overhead.
* **Threads must nest correctly.**  The span stack is thread-local, so
  the parallel suite runner's workers and the service daemon's worker
  threads each build their own subtree; spans started on a thread with
  an empty stack become roots (``tracer.roots``, lock-guarded).
* **Spans must travel.**  :meth:`Span.to_dict` / :meth:`Span.from_dict`
  round-trip through plain JSON-able dicts, which is how spans cross
  the suite runner's process pool and land in artifacts.
* **Spans must stitch.**  Every span carries trace identity
  (``trace_id``/``span_id``/``parent_id``); a tracer built with a
  :class:`~repro.obs.context.TraceContext` roots its spans under the
  remote parent, so forests shipped back from worker processes merge
  into one tree per request
  (:func:`repro.obs.chrometrace.merged_trace_document`).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Span", "Tracer", "NULL_TRACER"]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def _rss_bytes() -> Optional[int]:
    """Resident set size in bytes, read without any allocation hook.

    One small ``/proc`` read per span boundary -- nanoseconds against
    the milliseconds a pipeline stage takes, which is what lets the
    default memory mode fit inside the deep-trace overhead budget.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return None


class Span:
    """One timed region.  ``t0``/``t1`` are ``perf_counter`` seconds
    relative to the process (monotonic); ``counters`` accumulate
    integer event tallies (blocks executed, loop events, ...);
    ``mem_delta``/``mem_peak`` are bytes from the tracer's memory
    probe -- RSS by default, exact tracemalloc bytes in
    ``memory="tracemalloc"`` mode (``None`` when not sampling)."""

    __slots__ = (
        "name", "cat", "t0", "t1", "tid", "args", "counters",
        "mem_delta", "mem_peak", "children", "_mem0",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(
        self,
        name: str,
        cat: str = "phase",
        t0: float = 0.0,
        tid: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.t1 = t0
        self.tid = tid
        self.args = args or {}
        self.counters: Dict[str, int] = {}
        self.mem_delta: Optional[int] = None
        self.mem_peak: Optional[int] = None
        self.children: List["Span"] = []
        self._mem0: Optional[int] = None
        #: trace identity ("" = this span never joined a trace): the
        #: request's trace_id, this span's own id, and the id of its
        #: parent (for a tracer root: the *remote* parent from the
        #: adopted TraceContext)
        self.trace_id = ""
        self.span_id = ""
        self.parent_id = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def child_seconds(self) -> float:
        return sum(c.duration for c in self.children)

    def self_seconds(self) -> float:
        return max(self.duration - self.child_seconds(), 0.0)

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (pre-order) named ``name``."""
        for _, span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "tid": self.tid,
        }
        if self.args:
            doc["args"] = dict(self.args)
        if self.counters:
            doc["counters"] = dict(self.counters)
        if self.mem_delta is not None:
            doc["mem_delta"] = self.mem_delta
        if self.mem_peak is not None:
            doc["mem_peak"] = self.mem_peak
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        if self.span_id:
            doc["span_id"] = self.span_id
        if self.parent_id:
            doc["parent_id"] = self.parent_id
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Span":
        span = cls(
            doc["name"],
            cat=doc.get("cat", "phase"),
            t0=doc.get("t0", 0.0),
            tid=doc.get("tid", ""),
            args=dict(doc.get("args", {})),
        )
        span.t1 = doc.get("t1", span.t0)
        span.counters = dict(doc.get("counters", {}))
        span.mem_delta = doc.get("mem_delta")
        span.mem_peak = doc.get("mem_peak")
        span.trace_id = doc.get("trace_id", "")
        span.span_id = doc.get("span_id", "")
        span.parent_id = doc.get("parent_id", "")
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """The span a disabled tracer hands out: every operation is a
    no-op, entering returns the singleton itself."""

    __slots__ = ()

    t0 = 0.0
    t1 = 0.0
    duration = 0.0
    name = ""
    cat = ""
    tid = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, name: str, amount: int = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager creating one :class:`Span` on entry."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "span")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer._enter(self._name, self._cat, self._args)
        return self.span

    def __exit__(self, *exc) -> bool:
        self._tracer._exit(self.span)
        return False


class Tracer:
    """Collects a forest of spans; safe to use from many threads.

    ``memory=True`` additionally samples memory at span boundaries.
    The probe is deliberately cheap: process RSS from ``/proc`` (or
    ``tracemalloc``, iff the caller already pays for it elsewhere),
    so ``benchmarks/bench_obs.py`` can gate full spans+memory at
    <= 25% overhead on complete analyses.  Page-granular RSS deltas
    are honest for the allocations worth profiling (shadow memories,
    folded unions); for exact per-span byte attribution pass
    ``memory="tracemalloc"``, which starts CPython's allocation
    tracer (stopped again on :meth:`close`) and costs several-fold
    wall time -- outside the budget, by explicit request only.

    ``on_phase`` is an optional callback invoked with the span name
    whenever a shallow span (depth <= 1: the pipeline root and its
    stage spans) starts on any thread -- the service daemon uses it for
    job progress heartbeats.  Exceptions from the callback are
    swallowed: observability must never sink an analysis.

    ``context`` is an optional :class:`~repro.obs.context.TraceContext`
    this tracer's roots adopt: every root span carries the context's
    ``trace_id`` and points its ``parent_id`` at the context's
    ``span_id`` (the remote parent), so forests recorded in different
    processes stitch into one tree per request.  Without a context an
    enabled tracer mints a private trace id, so its spans are still
    internally linked.
    """

    def __init__(
        self,
        enabled: bool = True,
        memory: Union[bool, str] = False,
        on_phase: Optional[Callable[[str], None]] = None,
        context=None,
    ) -> None:
        self.enabled = enabled
        self.memory = memory if enabled and memory else False
        self.on_phase = on_phase
        self.context = context
        # lazy: the disabled singleton (NULL_TRACER) must not touch the
        # id generator at import, and most tracers never need it before
        # their first span
        self._trace_id: Optional[str] = (
            context.trace_id if context is not None else None
        )
        self._root_parent = (
            context.span_id if context is not None else ""
        )
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owns_tracemalloc = False
        self._rss_peak = 0
        self._use_tracemalloc = False
        if self.memory:
            import tracemalloc

            if self.memory == "tracemalloc":
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    self._owns_tracemalloc = True
                self._use_tracemalloc = True
            else:
                # piggyback on an allocation tracer someone else pays
                # for; otherwise fall back to the cheap RSS probe
                self._use_tracemalloc = tracemalloc.is_tracing()

    # -- the span API ----------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args):
        """``with tracer.span("fold.statements"): ...`` -- the returned
        object yields the live :class:`Span` (or a shared no-op when
        the tracer is disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, cat, args)

    def wrap(self, name: Optional[str] = None, cat: str = "func"):
        """Decorator form: ``@tracer.wrap("feedback.plan")``."""

        def deco(fn):
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def inner(*a, **kw):
                with self.span(label, cat=cat):
                    return fn(*a, **kw)

            return inner

        return deco

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context(self):
        """The :class:`~repro.obs.context.TraceContext` pointing at the
        innermost open span of this thread -- what fan-out sites hand
        to child work so its spans parent under the span that caused
        them.  Falls back to this tracer's own context; None when the
        tracer is disabled and has no context."""
        span = self.current()
        if span is not None and span.trace_id:
            from .context import TraceContext

            return TraceContext(
                trace_id=span.trace_id, span_id=span.span_id
            )
        return self.context

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a counter on the innermost open span of this thread."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.count(name, amount)

    # -- internals -------------------------------------------------------------

    def _mem_sample(self) -> Optional[Tuple[int, int]]:
        """``(current_bytes, peak_bytes)`` from the active probe.

        The RSS peak is a process-wide high-water mark over this
        tracer's boundary samples (racy-but-monotone across threads),
        mirroring ``tracemalloc.get_traced_memory()``'s global-peak
        semantics."""
        if self._use_tracemalloc:
            import tracemalloc

            return tracemalloc.get_traced_memory()
        rss = _rss_bytes()
        if rss is None:  # pragma: no cover - non-/proc platforms
            return None
        if rss > self._rss_peak:
            self._rss_peak = rss
        return rss, self._rss_peak

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, cat: str, args: dict) -> Span:
        from .context import new_span_id, new_trace_id

        stack = self._stack()
        span = Span(
            name,
            cat=cat,
            t0=time.perf_counter(),
            tid=threading.current_thread().name,
            args=args,
        )
        span.span_id = new_span_id()
        if self.memory:
            sampled = self._mem_sample()
            if sampled is not None:
                span._mem0 = sampled[0]
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            if self._trace_id is None:
                self._trace_id = new_trace_id()
            span.trace_id = self._trace_id
            span.parent_id = self._root_parent
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        if self.on_phase is not None and len(stack) <= 2:
            try:
                self.on_phase(name)
            except Exception:
                pass
        return span

    def _exit(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.t1 = time.perf_counter()
        if self.memory and span._mem0 is not None:
            sampled = self._mem_sample()
            if sampled is not None:
                span.mem_delta = sampled[0] - span._mem0
                span.mem_peak = sampled[1]
        stack = self._stack()
        # tolerate exits out of order (an exception unwinding through
        # several spans exits them innermost-first, which is in order;
        # anything else we recover from rather than corrupt the stack)
        while stack:
            top = stack.pop()
            if top is span:
                break

    # -- lifecycle / export ----------------------------------------------------

    def close(self) -> None:
        """Release resources (stops tracemalloc iff this tracer
        started it).  Idempotent."""
        if self._owns_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._owns_tracemalloc = False

    def to_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [r.to_dict() for r in self.roots]

    def total_seconds(self) -> float:
        with self._lock:
            return sum(r.duration for r in self.roots)


#: the shared disabled tracer: every ``span()`` is the same no-op
NULL_TRACER = Tracer(enabled=False)
