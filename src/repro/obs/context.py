"""Trace context: the identity a request carries across processes.

Distributed tracing needs exactly one piece of shared state: *which
request is this work for, and which span caused it*.  A
:class:`TraceContext` is that state -- a 128-bit ``trace_id`` naming
the request end-to-end, the 64-bit ``span_id`` of the causing span (the
remote parent), and a sampled flag -- minted at every front door (the
``repro`` CLI, ``POST /v1/analyze`` on a daemon) and propagated
everywhere work fans out:

* as a W3C ``traceparent`` HTTP header from a caller to the daemon
  (:meth:`TraceContext.to_traceparent` / :meth:`from_traceparent`);
* as a plain dict over the procpool control pipe and the suite
  runner's process pool (:meth:`as_dict` / :meth:`from_dict`);
* as the ``context`` of every :class:`~repro.obs.tracer.Tracer`, whose
  root spans adopt the remote parent so span forests shipped back from
  worker processes stitch into one tree per request
  (:func:`repro.obs.chrometrace.merged_trace_document`).

Ids are generated from a per-process CSPRNG-seeded generator that
re-seeds after ``fork()``, so pool workers never mint colliding ids.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "TraceContext",
    "new_trace_context",
    "new_trace_id",
    "new_span_id",
]

#: W3C trace-context version this module emits and accepts
TRACEPARENT_VERSION = "00"

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)

# One Random per process: ~5x cheaper than os.urandom per id, but it
# must never survive a fork unsampled -- two pool workers inheriting
# the same generator state would mint identical span ids.
_rng = random.Random()
_rng_pid: Optional[int] = None


def _generator() -> random.Random:
    global _rng_pid
    pid = os.getpid()
    if pid != _rng_pid:
        _rng.seed(os.urandom(16))
        _rng_pid = pid
    return _rng


def new_trace_id() -> str:
    """A fresh 32-hex (128-bit) trace id; never all zeros."""
    value = _generator().getrandbits(128) or 1
    return f"{value:032x}"


def new_span_id() -> str:
    """A fresh 16-hex (64-bit) span id; never all zeros."""
    value = _generator().getrandbits(64) or 1
    return f"{value:016x}"


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: which trace, which causing span."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value."""
        flags = "01" if self.sampled else "00"
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}"
            f"-{self.span_id}-{flags}"
        )

    @classmethod
    def from_traceparent(cls, header: Any) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; None on anything malformed
        (a bad header must never fail a request -- the daemon simply
        mints a fresh context instead)."""
        if not isinstance(header, str):
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        # future versions parse leniently, but 0xff is forbidden by
        # the W3C spec (it would collide with the field terminator)
        if match.group("version") == "ff":
            return None
        trace_id = match.group("trace_id")
        span_id = match.group("span_id")
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            sampled=bool(int(match.group("flags"), 16) & 1),
        )

    def as_dict(self) -> Dict[str, Any]:
        """Pipe/pool transport form (plain JSON-able dict)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            sampled=bool(doc.get("sampled", True)),
        )

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        """Same trace, a different causing span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            sampled=self.sampled,
        )


def new_trace_context(sampled: bool = True) -> TraceContext:
    """Mint a root context -- what every front door does when the
    request arrived without a ``traceparent``."""
    return TraceContext(
        trace_id=new_trace_id(), span_id=new_span_id(), sampled=sampled
    )
