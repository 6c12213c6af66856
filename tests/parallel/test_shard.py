"""Unit tests for the routing layer: whole-stream routing, order
recording, chunk flushing, and the order-preserving merge."""

import pytest

from repro.ddg.graph import DepKey, Statement
from repro.folding.folder import FoldedDDG
from repro.isa.program import Instr
from repro.parallel import (
    ShardRouter,
    apply_chunk,
    merge_shards,
    shard_of_dep,
    shard_of_stmt,
)


def _stmt(uid, cid=0, depth=1):
    instr = Instr(uid=uid, opcode="add", dest="r0", srcs=("r1", "r2"))
    ctx = tuple(("f", f"loop{i}") for i in range(depth)) + (("f", "bb"),)
    return Statement(key=(uid, cid), instr=instr, func="f", context=ctx)


def _dep(src_uid, dst_uid, kind="reg"):
    return DepKey(src=(src_uid, 0), dst=(dst_uid, 0), kind=kind)


class _Collector:
    """Captures emitted chunks per shard, in emission order."""

    def __init__(self):
        self.chunks = []  # (shard, chunk)

    def __call__(self, shard, chunk):
        self.chunks.append((shard, list(chunk)))

    def events_for(self, shard):
        out = []
        for s, chunk in self.chunks:
            if s == shard:
                out.extend(chunk)
        return out


class TestShardFunctions:
    def test_deterministic_and_in_range(self):
        for nshards in (1, 2, 3, 7, 16):
            for uid in range(200):
                s1 = shard_of_stmt((uid, uid % 3), nshards)
                s2 = shard_of_stmt((uid, uid % 3), nshards)
                assert s1 == s2
                assert 0 <= s1 < nshards
                d = _dep(uid, uid + 1)
                assert 0 <= shard_of_dep(d, nshards) < nshards

    def test_spreads_across_shards(self):
        # not a balance guarantee, just "the hash is not constant"
        shards = {shard_of_stmt((uid, 0), 4) for uid in range(64)}
        assert len(shards) > 1


class TestRouting:
    def test_whole_stream_routing_preserves_order(self):
        emit = _Collector()
        router = ShardRouter(3, emit, flush_points=1)
        stmts = [_stmt(i) for i in range(6)]
        for s in stmts:
            router.declare_statement(s)
        # two "block executions" delivering batched points
        items = [(s.key, (i,)) for i, s in enumerate(stmts)]
        router.instr_points((0,), items)
        router.instr_points((1,), items)
        router.flush()
        seen = set()
        for shard in range(3):
            events = emit.events_for(shard)
            keys_here = {e[1].key for e in events if e[0] == "S"}
            seen |= keys_here
            # every point event's statements belong to this shard
            for e in events:
                if e[0] == "I":
                    for key, _label in e[2]:
                        assert router.stmt_shard[key] == shard
            # per-shard batch order: declaration first, then coords 0, 1
            coords = [e[1] for e in events if e[0] == "I"]
            if keys_here:
                assert coords == [(0,), (1,)]
        assert seen == {s.key for s in stmts}
        assert router.stmt_order == [s.key for s in stmts]

    def test_batch_split_plan_partitions_items(self):
        emit = _Collector()
        router = ShardRouter(2, emit, flush_points=10**9)
        stmts = [_stmt(i) for i in range(5)]
        for s in stmts:
            router.declare_statement(s)
        items = [(s.key, ()) for s in stmts]
        router.instr_points((7,), items)
        router.flush()
        all_keys = []
        for shard in range(2):
            for e in emit.events_for(shard):
                if e[0] == "I":
                    all_keys.extend(k for k, _ in e[2])
        # exactly a partition: nothing lost, nothing duplicated
        assert sorted(all_keys) == sorted(s.key for s in stmts)

    def test_dep_first_appearance_order_recorded(self):
        emit = _Collector()
        router = ShardRouter(4, emit, flush_points=10**9)
        d1, d2, d3 = _dep(1, 2), _dep(2, 3, "flow"), _dep(1, 3, "anti")
        router.dep_points((0,), [(d1, (0,)), (d2, (0,))])
        router.dep_points((1,), [(d3, (0,))])
        router.dep_points((2,), [(d2, (1,)), (d1, (1,))])
        assert router.dep_order == [d1, d2, d3]
        router.flush()
        # per-dep events all live on that dep's shard, in point order
        for dep in (d1, d2, d3):
            shard = router.dep_shard[dep]
            pts = []
            for e in emit.events_for(shard):
                if e[0] == "D":
                    pts.extend(
                        (e[1], src) for dd, src in e[2] if dd == dep
                    )
            if dep is d1:
                assert pts == [((0,), (0,)), ((2,), (1,))]
            elif dep is d2:
                assert pts == [((0,), (0,)), ((2,), (1,))]
            else:
                assert pts == [((1,), (0,))]

    def test_flush_threshold_ships_chunks_early(self):
        emit = _Collector()
        router = ShardRouter(1, emit, flush_points=4)
        s = _stmt(1)
        router.declare_statement(s)
        for i in range(10):
            router.instr_points((i,), [(s.key, ())])
        assert emit.chunks  # shipped before flush()
        router.flush()
        events = emit.events_for(0)
        assert [e[0] for e in events][0] == "S"
        assert sum(1 for e in events if e[0] == "I") == 10

    def test_custom_routes_override_hash(self):
        emit = _Collector()
        router = ShardRouter(
            4,
            emit,
            flush_points=10**9,
            stmt_route=lambda key, n: 0,
            dep_route=lambda dep, n: n - 1,
        )
        s = _stmt(9)
        router.declare_statement(s)
        router.instr_points((0,), [(s.key, ())])
        router.dep_points((0,), [(_dep(9, 9), (0,))])
        router.flush()
        assert router.stmt_shard[s.key] == 0
        assert router.dep_shard[_dep(9, 9)] == 3
        assert len(emit.events_for(0)) == 2
        assert len(emit.events_for(3)) == 1

    def test_nshards_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardRouter(0, lambda s, c: None)


class TestApplyChunk:
    def test_replay_matches_direct_delivery(self):
        from repro.folding import FastFoldingSink

        direct = FastFoldingSink()
        replay = FastFoldingSink()
        s1, s2 = _stmt(1), _stmt(2)
        dep = _dep(1, 2)
        events = [
            ("S", s1),
            ("S", s2),
            ("I", (0,), [(s1.key, (10,)), (s2.key, (20,))]),
            ("I", (1,), [(s1.key, (11,)), (s2.key, (21,))]),
            ("D", (1,), [(dep, (0,))]),
        ]
        direct.declare_statement(s1)
        direct.declare_statement(s2)
        direct.instr_points((0,), [(s1.key, (10,)), (s2.key, (20,))])
        direct.instr_points((1,), [(s1.key, (11,)), (s2.key, (21,))])
        direct.dep_points((1,), [(dep, (0,))])
        points = apply_chunk(replay, events)
        assert points == 5
        from repro.folding.codec import encode_folded_ddg

        assert encode_folded_ddg(replay.finalize()) == encode_folded_ddg(
            direct.finalize()
        )

    def test_unknown_tag_rejected(self):
        from repro.folding import FastFoldingSink

        with pytest.raises(ValueError):
            apply_chunk(FastFoldingSink(), [("X", None)])


class TestMerge:
    def _folded(self, stmt_uids, dep_pairs):
        from repro.folding import FastFoldingSink

        sink = FastFoldingSink()
        for uid in stmt_uids:
            s = _stmt(uid)
            sink.declare_statement(s)
            sink.instr_point(s.key, (uid,), ())
        for src, dst in dep_pairs:
            sink.dep_point(_dep(src, dst), (dst,), (src,))
        return sink.finalize()

    def test_merge_rebuilds_serial_order(self):
        a = self._folded([2, 4], [(2, 4)])
        b = self._folded([1, 3], [(1, 3)])
        stmt_order = [(1, 0), (2, 0), (3, 0), (4, 0)]
        stmt_shard = {(1, 0): 1, (2, 0): 0, (3, 0): 1, (4, 0): 0}
        dep_order = [_dep(1, 3), _dep(2, 4)]
        dep_shard = {_dep(1, 3): 1, _dep(2, 4): 0}
        merged = merge_shards([a, b], stmt_shard, stmt_order,
                              dep_shard, dep_order)
        assert isinstance(merged, FoldedDDG)
        assert list(merged.statements) == stmt_order
        assert list(merged.deps) == dep_order

    def test_merge_detects_unrouted_streams(self):
        a = self._folded([1, 2], [])
        with pytest.raises(ValueError):
            merge_shards([a], {(1, 0): 0}, [(1, 0)], {}, [])
