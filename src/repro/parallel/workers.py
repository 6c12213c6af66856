"""Worker processes for sharded folding.

One process per shard, fed routed event chunks over a pipe *while the
instrumented execution is still running* -- folding (76-94% of stage-2
wall on the bench set) overlaps with event production instead of
trailing it, which is what makes the speedup exceed the fold fraction
alone.  Each worker owns a private fast folding sink, folds its
streams to a per-shard :class:`~repro.folding.folder.FoldedDDG`, and
ships it back; the manager merges in recorded serial order
(:func:`~.shard.merge_shards`).

Workers report ``perf_counter`` timestamps; on Linux that clock is
``CLOCK_MONOTONIC``, shared across processes, so the manager can
synthesize per-shard :class:`~repro.obs.Span`\\ s directly comparable
with the main process's span tree (``repro trace --flame`` shows the
fan-out).  On platforms without a shared epoch the spans would merely
be misaligned, never wrong about duration.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Callable, List, Optional

from ..ddg.graph import DepKey, StmtKey
from ..folding.folder import FoldedDDG
from ..obs import Span
from .shard import DEFAULT_FLUSH_POINTS, ShardRouter, apply_chunk, merge_shards

#: hard sanity cap on worker processes per analysis
MAX_FOLD_JOBS = 64


class ParallelFoldError(RuntimeError):
    """A fold worker died or reported an exception."""


def _shard_worker(conn, shard_id: int, max_pieces: int,
                  clamp: Optional[int]) -> None:
    """Process body: fold one shard's event stream to a FoldedDDG."""
    from ..folding import FastFoldingSink

    sink = FastFoldingSink(max_pieces=max_pieces, clamp=clamp)
    t0 = time.perf_counter()
    busy = 0.0
    chunks = 0
    points = 0
    try:
        while True:
            msg, payload = conn.recv()
            if msg == "chunk":
                b = time.perf_counter()
                points += apply_chunk(sink, payload)
                busy += time.perf_counter() - b
                chunks += 1
            elif msg == "finalize":
                b = time.perf_counter()
                folded = sink.finalize()
                busy += time.perf_counter() - b
                conn.send(
                    (
                        "ok",
                        {
                            "folded": folded,
                            "clamped_points": sink.clamped_points,
                            "chunks": chunks,
                            "points": points,
                            "busy_seconds": busy,
                            "t0": t0,
                            "t1": time.perf_counter(),
                        },
                    )
                )
                return
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown worker message {msg!r}")
    except EOFError:  # pragma: no cover - manager died / aborted run
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class ParallelFoldManager:
    """Owns the worker pool and the router for one analysis.

    Usage (what ``pipeline.analyze`` does on a stage-2 cache miss with
    ``fold_jobs > 1``)::

        manager = ParallelFoldManager(jobs, ...)
        try:
            profile_ddg(spec, control, sink=manager.router, ...)
            folded = manager.finalize()
        finally:
            manager.close()

    ``finalize`` flushes the router, asks every worker for its folded
    shard, merges, and records per-shard statistics
    (``shard_stats``/``clamped_points``); :meth:`attach_spans` then
    hangs one synthesized span per shard under the stage span.
    """

    def __init__(
        self,
        jobs: int,
        max_pieces: int = 6,
        clamp: Optional[int] = None,
        flush_points: int = DEFAULT_FLUSH_POINTS,
        stmt_route: Optional[Callable[[StmtKey, int], int]] = None,
        dep_route: Optional[Callable[[DepKey, int], int]] = None,
        mp_context=None,
    ) -> None:
        jobs = max(1, min(int(jobs), MAX_FOLD_JOBS))
        self.jobs = jobs
        ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        self._conns = []
        self._procs = []
        self._closed = False
        self.shard_stats: List[dict] = []
        self.clamped_points = 0
        try:
            for shard in range(jobs):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, shard, max_pieces, clamp),
                    name=f"repro-fold-{shard}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        self.router = ShardRouter(
            jobs,
            self._emit,
            flush_points=flush_points,
            stmt_route=stmt_route,
            dep_route=dep_route,
        )

    def _emit(self, shard: int, chunk: list) -> None:
        try:
            self._conns[shard].send(("chunk", chunk))
        except (BrokenPipeError, OSError) as exc:
            raise ParallelFoldError(
                f"fold worker {shard} died (exitcode "
                f"{self._procs[shard].exitcode}): {exc}"
            ) from exc

    def finalize(self) -> FoldedDDG:
        """Flush, collect every shard's folded union, merge."""
        router = self.router
        router.flush()
        for shard, conn in enumerate(self._conns):
            try:
                conn.send(("finalize", None))
            except (BrokenPipeError, OSError) as exc:
                raise ParallelFoldError(
                    f"fold worker {shard} died before finalize "
                    f"(exitcode {self._procs[shard].exitcode})"
                ) from exc
        replies = []
        for shard, conn in enumerate(self._conns):
            try:
                msg, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise ParallelFoldError(
                    f"fold worker {shard} died during finalize "
                    f"(exitcode {self._procs[shard].exitcode})"
                ) from exc
            if msg != "ok":
                raise ParallelFoldError(
                    f"fold worker {shard} failed:\n{payload}"
                )
            replies.append(payload)
        for proc in self._procs:
            proc.join(timeout=30)
        self.shard_stats = [
            {
                "shard": shard,
                "events": router.events_routed[shard],
                "chunks": r["chunks"],
                "points": r["points"],
                "statements": len(r["folded"].statements),
                "deps": len(r["folded"].deps),
                "busy_seconds": r["busy_seconds"],
                "t0": r["t0"],
                "t1": r["t1"],
            }
            for shard, r in enumerate(replies)
        ]
        self.clamped_points = sum(r["clamped_points"] for r in replies)
        return merge_shards(
            [r["folded"] for r in replies],
            router.stmt_shard,
            router.stmt_order,
            router.dep_shard,
            router.dep_order,
        )

    def shard_busy_seconds(self) -> List[float]:
        """Per-shard fold seconds (busy time, not lifetime).  These
        overlap each other and the instrumented execution, so they are
        deliberately *not* part of any parts-sum-to-total stage
        accounting."""
        return [s["busy_seconds"] for s in self.shard_stats]

    def attach_spans(self, parent_span) -> None:
        """Synthesize one ``fold.shard`` span per worker under
        ``parent_span`` (a no-op on a disabled tracer's null span)."""
        children = getattr(parent_span, "children", None)
        if children is None or not self.shard_stats:
            return
        for stat in self.shard_stats:
            span = Span(
                "fold.shard",
                cat="fold",
                t0=stat["t0"],
                tid=f"fold-shard-{stat['shard']}",
                args={
                    "shard": stat["shard"],
                    "busy_seconds": round(stat["busy_seconds"], 6),
                },
            )
            span.t1 = stat["t1"]
            span.counters = {
                "events": stat["events"],
                "chunks": stat["chunks"],
                "points": stat["points"],
                "statements": stat["statements"],
                "deps": stat["deps"],
            }
            children.append(span)

    def close(self) -> None:
        """Tear down pipes and processes; idempotent, safe mid-error."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=5)

    def __enter__(self) -> "ParallelFoldManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
