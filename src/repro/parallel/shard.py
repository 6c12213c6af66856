"""Stream sharding: deterministic routing + order-preserving merge.

The folding sinks key their state per statement (``StmtKey``) and per
dependence (``DepKey``); a stream's folded result depends only on that
stream's own point sequence.  Sharding therefore reduces to a routing
layer: send *every* event of one stream to one shard, preserve the
per-stream event order, and the per-shard sinks reproduce exactly the
streams the serial sink would have folded.

Two invariants make the merged result bit-identical to the serial
reference (and therefore byte-identical through the codec):

* **whole-stream routing** -- a statement's declaration and all of its
  points go to ``shard_of_stmt(key)``; a dependence's points go to
  ``shard_of_dep(key)``.  Batched ``instr_points``/``dep_points``
  calls are split into per-shard sub-batches, which preserves each
  stream's point order because each shard's buffer is FIFO.  Routing
  at statement granularity (never at block granularity) keeps the fast
  sink's shared-group folders exact: all statements of one executed
  block that land in the same shard still receive identical coordinate
  batches, so the shard-local sharing mirrors the serial sharing
  restricted to that shard's members.
* **order-recording merge** -- the codec serializes statements and
  dependences in dict insertion order, so the router records the
  serial declaration order (statements) and first-appearance order
  (dependences) while routing, and :func:`merge_shards` rebuilds the
  merged dicts in exactly that order.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ddg.graph import DDGSink, DepKey, Statement, StmtKey
from ..folding.folder import FoldedDDG

#: default points buffered per shard before a chunk is shipped; large
#: enough to amortize pickling, small enough to keep workers busy
#: while the instrumented execution is still producing
DEFAULT_FLUSH_POINTS = 8192


def shard_of_stmt(key: StmtKey, nshards: int) -> int:
    """Deterministic statement-key -> shard assignment (crc32, stable
    across processes and runs -- unlike ``hash()``, which is salted)."""
    return zlib.crc32(repr(key).encode("ascii")) % nshards


def shard_of_dep(dep: DepKey, nshards: int) -> int:
    """Deterministic dependence-key -> shard assignment."""
    return zlib.crc32(repr((dep.src, dep.dst, dep.kind)).encode("ascii")) % nshards


class ShardRouter(DDGSink):
    """A :class:`~repro.ddg.graph.DDGSink` that partitions the event
    stream across ``nshards`` FIFO buffers and ships full chunks via
    ``emit(shard, chunk)``.

    ``stmt_route``/``dep_route`` override the default crc32 assignment
    (the determinism tests use adversarial routes: everything on one
    shard, one statement per shard, dependences split away from their
    endpoint statements).  Any total function of the key is sound.
    """

    def __init__(
        self,
        nshards: int,
        emit: Callable[[int, list], None],
        flush_points: int = DEFAULT_FLUSH_POINTS,
        stmt_route: Optional[Callable[[StmtKey, int], int]] = None,
        dep_route: Optional[Callable[[DepKey, int], int]] = None,
    ) -> None:
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        self.nshards = nshards
        self._emit = emit
        self._flush_points = flush_points
        self._stmt_route = stmt_route or shard_of_stmt
        self._dep_route = dep_route or shard_of_dep

        #: serial declaration order of statements / first-appearance
        #: order of dependences, recorded for the merge
        self.stmt_order: List[StmtKey] = []
        self.dep_order: List[DepKey] = []
        self.stmt_shard: Dict[StmtKey, int] = {}
        self.dep_shard: Dict[DepKey, int] = {}

        self._buffers: List[list] = [[] for _ in range(nshards)]
        self._pending: List[int] = [0] * nshards
        #: batch-split plans per statement-key group: an int when the
        #: whole group lives on one shard, else [(shard, idxs), ...]
        self._gkey_plans: Dict[Tuple[StmtKey, ...], object] = {}
        #: events shipped per shard (observability)
        self.events_routed: List[int] = [0] * nshards

    # -- internal helpers -------------------------------------------------------

    def _push(self, shard: int, event: tuple, points: int) -> None:
        buf = self._buffers[shard]
        buf.append(event)
        self.events_routed[shard] += 1
        pending = self._pending[shard] + points
        if pending >= self._flush_points:
            self._emit(shard, buf)
            self._buffers[shard] = []
            self._pending[shard] = 0
        else:
            self._pending[shard] = pending

    def flush(self) -> None:
        """Ship every non-empty buffer (end of the event stream)."""
        for shard, buf in enumerate(self._buffers):
            if buf:
                self._emit(shard, buf)
                self._buffers[shard] = []
                self._pending[shard] = 0

    # -- DDGSink interface ------------------------------------------------------

    def declare_statement(self, stmt: Statement) -> None:
        key = stmt.key
        if key in self.stmt_shard:
            return
        shard = self._stmt_route(key, self.nshards)
        self.stmt_shard[key] = shard
        self.stmt_order.append(key)
        self._push(shard, ("S", stmt), 0)

    def instr_points(self, coords, items) -> None:
        gkey = tuple(k for k, _ in items)
        plan = self._gkey_plans.get(gkey)
        if plan is None:
            by_shard: Dict[int, List[int]] = {}
            stmt_shard = self.stmt_shard
            for i, key in enumerate(gkey):
                by_shard.setdefault(stmt_shard[key], []).append(i)
            if len(by_shard) == 1:
                plan = next(iter(by_shard))
            else:
                plan = sorted(by_shard.items())
            self._gkey_plans[gkey] = plan
        if type(plan) is int:
            self._push(plan, ("I", coords, items), len(items))
            return
        for shard, idxs in plan:
            sub = [items[i] for i in idxs]
            self._push(shard, ("I", coords, sub), len(sub))

    def dep_points(self, dst_coords, items) -> None:
        dep_shard = self.dep_shard
        by_shard: Dict[int, list] = {}
        for item in items:
            dep = item[0]
            shard = dep_shard.get(dep)
            if shard is None:
                shard = self._dep_route(dep, self.nshards)
                dep_shard[dep] = shard
                self.dep_order.append(dep)
            sub = by_shard.get(shard)
            if sub is None:
                by_shard[shard] = [item]
            else:
                sub.append(item)
        for shard, sub in by_shard.items():
            self._push(shard, ("D", dst_coords, sub), len(sub))


def apply_chunk(sink: DDGSink, chunk: Sequence[tuple]) -> int:
    """Replay one routed chunk into a folding sink; returns the number
    of points applied.  Inverse of the router's event encoding."""
    points = 0
    declare = sink.declare_statement
    instr_points = sink.instr_points
    dep_points = sink.dep_points
    for event in chunk:
        tag = event[0]
        if tag == "I":
            _, coords, items = event
            instr_points(coords, items)
            points += len(items)
        elif tag == "D":
            _, dst_coords, items = event
            dep_points(dst_coords, items)
            points += len(items)
        elif tag == "S":
            declare(event[1])
        else:  # pragma: no cover - protocol guard
            raise ValueError(f"unknown shard event tag {tag!r}")
    return points


def merge_shards(
    shard_ddgs: Sequence[FoldedDDG],
    stmt_shard: Dict[StmtKey, int],
    stmt_order: Sequence[StmtKey],
    dep_shard: Dict[DepKey, int],
    dep_order: Sequence[DepKey],
) -> FoldedDDG:
    """Merge per-shard folded unions into one :class:`FoldedDDG`.

    Streams are disjoint across shards, so the merge is a union of the
    routed keys, rebuilt through :func:`~repro.folding.canonical_ddg`
    -- the same key-sorted normalization the serial fold applies --
    which is what makes the merged result *byte*-identical through the
    codec (it serializes in insertion order), not merely
    value-identical.  SCEV flags were already computed per shard
    (recognition is a pure per-statement predicate, see
    ``run_scev_recognition``).
    """
    from ..folding.folder import canonical_ddg

    statements = {}
    for key in stmt_order:
        statements[key] = shard_ddgs[stmt_shard[key]].statements[key]
    deps = {}
    for dep in dep_order:
        deps[dep] = shard_ddgs[dep_shard[dep]].deps[dep]
    total_stmts = sum(len(d.statements) for d in shard_ddgs)
    total_deps = sum(len(d.deps) for d in shard_ddgs)
    if total_stmts != len(statements) or total_deps != len(deps):
        raise ValueError(
            "shard merge mismatch: "
            f"{total_stmts} sharded vs {len(statements)} routed statements, "
            f"{total_deps} sharded vs {len(deps)} routed deps"
        )
    return canonical_ddg(statements, deps)
