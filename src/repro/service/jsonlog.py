"""Structured JSON logging for the analysis daemon.

One JSON object per line on a stream (stderr by default), every line
carrying the event name plus whatever context ids the emitting site
bound -- request ids, job ids, trace ids, worker indexes -- so a log
pipeline can follow one request across the HTTP handler, the queue,
and the worker that executed it without parsing free text.

Every record also carries the emitting process id (``pid``) and a
**per-process monotonic sequence number** (``seq``).  ``ts`` alone
cannot order a multi-process log merge: wall clocks tie at the
``round(…, 6)`` granularity and can step backwards under NTP, while
``(ts, pid, seq)`` is a total order that is stable no matter how the
per-process files were interleaved -- :func:`merge_records` is that
merge.  Lines that could not be written (dead stream) or encoded are
counted atomically (:func:`dropped_lines`) instead of raised, so the
merge consumer can at least know the log is incomplete.

Deliberately not :mod:`logging`: the daemon needs exactly one sink,
machine-readable lines, no global mutable configuration another import
could clobber, and the guarantee that a log call never raises into the
serving path.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import threading
import time
from typing import IO, Iterable, List, Optional

LEVELS = ("debug", "info", "warning", "error")

# Process-wide emission order.  itertools.count is a single C-level
# increment (atomic under the GIL), so two threads can never draw the
# same seq; a forked child keeps counting from the inherited value but
# its differing pid keeps (pid, seq) unique.
_seq = itertools.count(1)

_dropped = 0
_dropped_lock = threading.Lock()


def dropped_lines() -> int:
    """Log lines lost process-wide to encode or write failures."""
    with _dropped_lock:
        return _dropped


def _count_dropped() -> None:
    global _dropped
    with _dropped_lock:
        _dropped += 1


def merge_records(records: Iterable[dict]) -> List[dict]:
    """Deterministically order records from many interleaved logs.

    Sorts by ``(ts, pid, seq)``: wall time first (cross-process events
    keep their causal wall-clock order), then pid and the per-process
    sequence number as tie-breakers, so two merges of the same lines --
    however the per-process files were concatenated -- are identical,
    and one process's lines never reorder against each other even when
    their timestamps tie.  Records missing the fields (foreign lines)
    sort first among their timestamp peers rather than raising.
    """
    def order(record: dict):
        ts = record.get("ts")
        return (
            ts if isinstance(ts, (int, float)) else 0.0,
            record.get("pid") or 0,
            record.get("seq") or 0,
        )

    return sorted(records, key=order)


class JsonLogger:
    """Thread-safe line-per-event JSON logger with bound context."""

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        level: str = "info",
        _bound: Optional[dict] = None,
        _lock: Optional[threading.Lock] = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        self._threshold = LEVELS.index(level)
        self._bound = dict(_bound or {})
        self._lock = _lock or threading.Lock()

    def bind(self, **context) -> "JsonLogger":
        """A child logger whose every line also carries ``context``."""
        bound = dict(self._bound)
        bound.update(context)
        child = JsonLogger(
            stream=self._stream,
            _bound=bound,
            _lock=self._lock,
        )
        child._threshold = self._threshold
        return child

    def log(self, level: str, event: str, **fields) -> None:
        if LEVELS.index(level) < self._threshold:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
            "pid": os.getpid(),
            "seq": next(_seq),
        }
        record.update(self._bound)
        record.update(fields)
        try:
            line = json.dumps(record, default=str)
        except Exception:
            _count_dropped()
            line = json.dumps(
                {"ts": record["ts"], "level": "error",
                 "event": "log_encode_failed", "original_event": event,
                 "pid": record["pid"], "seq": record["seq"]}
            )
        try:
            with self._lock:
                self._stream.write(line + "\n")
                self._stream.flush()
        except Exception:
            # a dead log stream must never take the service down; the
            # dropped counter is the only trace the line leaves
            _count_dropped()

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


class NullLogger(JsonLogger):
    """Swallows everything (tests, benchmarks)."""

    def __init__(self) -> None:
        super().__init__(stream=io.StringIO(), level="error")

    def log(self, level: str, event: str, **fields) -> None:
        pass
