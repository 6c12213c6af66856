"""Sink-level differential tests: batched ``FastFoldingSink`` against
per-point delivery into the reference ``FoldingSink``.

Random programs of a few blocks run random loop nests; each block
execution delivers its statements' labels through ``instr_points`` and
its dependences through ``dep_points`` (the builder's protocol), and
the same events go one by one into the reference sink.  The finalized
folded DDGs must serialize to the same codec bytes.  Dependence
streams include ``src is dst`` points, constant shifts, general
affine maps, streams that leave their shift after a steady run, and
non-affine noise.  A dependence fires once per execution of its
destination's block, or skips some executions, fires twice in some,
starts after the first or stops before the last -- the cases that end
a stream's tracking of its destination's group.  A clamp is drawn for
some programs.  Every comparison also checks that the fast finalize
folds each distinct domain once (``TestSharedFolds`` pins the sharing
cases).
"""

import json
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddg.graph import DEP_KINDS, DepKey, Statement
from repro.folding import FastFoldingSink, FoldingSink, fastpath, fitter
from repro.folding.codec import encode_folded_ddg
from repro.folding.domains import DomainFolder
from repro.folding.fastpath import FastDomainFolder
from repro.isa.program import Instr
from repro.obs import Tracer

LABEL_KINDS = ["none", "affine", "affine", "leave", "noise", "sometimes"]
RELATION_KINDS = ["same", "shift", "shift", "affine", "leave", "noise"]
FIRING_KINDS = ["every", "every", "every", "skip", "twice", "late", "early"]


def _stmt(uid, depth, opcode):
    instr = Instr(uid=uid, opcode=opcode, dest="r0", srcs=("r1", "r2"))
    ctx = tuple(("f", f"loop{i}") for i in range(depth)) + (("f", "bb"),)
    return Statement(key=(uid, 0), instr=instr, func="f", context=ctx)


def _nest(draw, depth):
    """Lexicographic iterations of a small nest, maybe with a
    triangular inner bound and a few out-of-order points."""
    extents = [draw(st.integers(1, 4)) for _ in range(depth)]
    tri = depth > 1 and draw(st.booleans())
    pts = [()]
    for lvl, n in enumerate(extents):
        nxt = []
        for p in pts:
            hi = p[0] + 1 if tri and lvl == depth - 1 else n
            nxt.extend(p + (x,) for x in range(hi))
        pts = nxt
    for _ in range(draw(st.integers(0, 2))):
        pts.append(tuple(draw(st.integers(-2, 6)) for _ in range(depth)))
    return pts


def _label_fn(draw, kind, depth, n_points):
    coef = [draw(st.integers(-3, 3)) for _ in range(depth)]
    const = draw(st.integers(-5, 5))
    cut = draw(st.integers(0, max(0, n_points - 1)))
    noise = draw(st.integers(1, 7))

    def affine(p):
        return sum(a * x for a, x in zip(coef, p)) + const

    def fn(step, p):
        if kind == "none":
            return ()
        if kind == "affine":
            return (affine(p),)
        if kind == "leave":
            return (affine(p) + (step >= cut),)
        if kind == "noise":
            return ((affine(p) * 7 + step * noise) % 5,)
        # "sometimes": unlabelled points break the domain alias
        return (affine(p),) if (step + noise) % 4 else ()

    return fn


def _firing_fn(draw, kind, n_points):
    """How many times a dependence fires in execution ``step`` of its
    destination's block."""
    at = draw(st.integers(0, max(0, n_points - 1)))
    period = draw(st.integers(2, 4))

    def times(step):
        if kind == "skip":
            return 0 if step % period == at % period else 1
        if kind == "twice":
            return 2 if step % period == at % period else 1
        if kind == "late":
            return 1 if step >= at else 0
        if kind == "early":
            return 1 if step <= at else 0
        return 1

    return times


def _dep_fn(draw, kind, depth, n_points):
    src_depth = depth if kind in ("same", "shift", "leave") else draw(
        st.integers(0, 3)
    )
    shift = tuple(draw(st.integers(-2, 2)) for _ in range(depth))
    rows = [
        ([draw(st.integers(-2, 2)) for _ in range(depth)], draw(st.integers(-3, 3)))
        for _ in range(src_depth)
    ]
    cut = draw(st.integers(0, max(0, n_points - 1)))

    def fn(step, p):
        if kind == "same":
            return p  # the same tuple object: ``src is dst``
        if kind == "shift" or (kind == "leave" and step < cut):
            return tuple(x + s for x, s in zip(p, shift))
        if kind == "noise":
            return tuple((x * x + step) % 3 for x in p[:src_depth])
        return tuple(sum(a * x for a, x in zip(c, p)) + k for c, k in rows)

    return fn


@st.composite
def programs(draw):
    blocks = []
    uid = 0
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(0, 3))
        pts = _nest(draw, depth)
        stmts = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(LABEL_KINDS))
            opcode = draw(st.sampled_from(["add", "load"]))
            stmts.append((_stmt(uid, depth, opcode), _label_fn(draw, kind, depth, len(pts))))
            uid += 1
        deps = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(RELATION_KINDS))
            src_uid = draw(st.integers(0, uid - 1))
            dst_uid = draw(st.sampled_from([s.key[0] for s, _ in stmts]))
            key = DepKey(src=(src_uid, 0), dst=(dst_uid, 0), kind=DEP_KINDS[len(deps)])
            firing = draw(st.sampled_from(FIRING_KINDS))
            deps.append((
                key,
                _dep_fn(draw, kind, depth, len(pts)),
                _firing_fn(draw, firing, len(pts)),
            ))
        blocks.append((pts, stmts, deps))
    # interleave the blocks' executions; each keeps its own order
    order = draw(
        st.permutations([b for b, (pts, _, _) in enumerate(blocks) for _ in pts])
    )
    clamp = draw(st.sampled_from([None, None, None, 3, 8, 20]))
    return blocks, order, clamp


def _dep_items(deps, step, coords):
    """The ``dep_points`` batch of one execution.  A dependence is
    ``(key, src_fn)``, firing once per execution, or ``(key, src_fn,
    times)``; a second firing comes after every first one, with the
    next step's producer."""
    out = []
    for r in range(2):
        for key, fn, *times in deps:
            if (times[0](step) if times else 1) > r:
                out.append((key, fn(step + r, coords)))
    return out


def _run(blocks, order, clamp):
    fast = FastFoldingSink(clamp=clamp)
    ref = FoldingSink(clamp=clamp)
    for _pts, stmts, _deps in blocks:
        for stmt, _ in stmts:
            fast.declare_statement(stmt)
            ref.declare_statement(stmt)
    steps = [0] * len(blocks)
    for b in order:
        pts, stmts, deps = blocks[b]
        step = steps[b]
        steps[b] += 1
        coords = pts[step]
        items = [(stmt.key, fn(step, coords)) for stmt, fn in stmts]
        ditems = _dep_items(deps, step, coords)
        fast.instr_points(coords, items)
        if ditems:
            # now and then an equal coordinate tuple that is not the
            # same object (nor, then, any ``src is dst`` producer)
            dst = tuple(list(coords)) if step % 3 == 2 else coords
            fast.dep_points(dst, ditems)
        for key, label in items:
            ref.instr_point(key, coords, label)
        for key, src in ditems:
            ref.dep_point(key, coords, src)
    return fast, ref


def _distinct_domains(ref):
    """``(dim, count == 0, row summary)`` of every domain the
    reference finalize folds (a clamped dependence's labels are
    dropped unfolded)."""
    folders = []
    for stream in ref._stmt_streams.values():
        folders.append(stream.domain)
        if stream.labels is not None:
            folders.extend(dom for _, dom in stream.labels.pieces)
    for dep, stream in ref._dep_streams.items():
        folders.append(stream.domain)
        if dep not in ref._clamped_deps:
            folders.extend(dom for _, dom in stream.labels.pieces)
    return {(f.dim, f.count == 0, f.row_summary()) for f in folders}


def assert_same_ddg(fast, ref):
    """Equal codec bytes, and the fast finalize folds each distinct
    domain exactly once."""
    assert fast.clamped_points == ref.clamped_points
    distinct = _distinct_domains(ref)
    folds = []
    fold_summary = DomainFolder.fold_summary

    def counting(self, rows, max_pieces=6):
        if type(self) is FastDomainFolder:  # not a prefix sub-fold
            folds.append(self)
        return fold_summary(self, rows, max_pieces)

    tracer = Tracer()
    with patch.object(DomainFolder, "fold_summary", counting):
        got = json.dumps(encode_folded_ddg(fast.finalize(tracer=tracer)))
    want = json.dumps(encode_folded_ddg(ref.finalize()))
    assert got == want
    assert len(folds) == len(distinct)
    (span,) = [r for r in tracer.roots if r.name == "fold.domains"]
    assert span.counters.get("folds", 0) == len(distinct)
    return span.counters.get("reused", 0)


class TestSinkDifferential:
    @given(programs())
    @settings(deadline=None)
    def test_batched_fast_equals_per_point_reference(self, program):
        assert_same_ddg(*_run(*program))

    def test_clamped_steady_streams(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        blocks = [
            (
                [(i, j) for i in range(5) for j in range(5)],
                [(s, lambda step, p: (4 * p[0] + p[1],))],
                [(dep, lambda step, p: (p[0] - 1, p[1]))],
            )
        ]
        fast, ref = _run(blocks, [0] * 25, clamp=10)
        assert fast.clamped_points == 30
        assert_same_ddg(fast, ref)

    def test_stream_leaves_its_shift_after_steady_points(self):
        s = _stmt(0, 2, "add")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        pts = [(i, j) for i in range(6) for j in range(6)]

        def src(step, p):
            # 30 steady points at distance (-1, 0), then a new distance
            return (p[0] - 1, p[1]) if step < 30 else (p[0], p[1] - 1)

        blocks = [(pts, [(s, lambda step, p: (p[0] + p[1],))], [(dep, src)])]
        fast, ref = _run(blocks, [0] * len(pts), clamp=None)
        stream = fast._dep_streams[dep]
        assert stream.steady is None and stream.partial is not None
        # its labels diverged, but it still fires once per execution:
        # the domain is still the group's
        assert stream.group is not None
        assert_same_ddg(fast, ref)


def _square(n=4):
    return [(i, j) for i in range(n) for j in range(n)]


def _feed(sinks, coords, items=None, ditems=None):
    """One block's events: batched into the fast sink (first), point
    by point into the reference."""
    fast, ref = sinks
    if items is not None:
        fast.instr_points(coords, items)
        for key, label in items:
            ref.instr_point(key, coords, label)
    if ditems:
        fast.dep_points(coords, ditems)
        for key, src in ditems:
            ref.dep_point(key, coords, src)


class TestGroupTracking:
    """Dependences that fire exactly once per execution of their
    destination's group share its domain folder and its span test;
    every way of leaving that state snapshots the folder exactly."""

    def _sinks(self, *stmts):
        sinks = (FastFoldingSink(), FoldingSink())
        for sink in sinks:
            for stmt in stmts:
                sink.declare_statement(stmt)
        return sinks

    def test_skipping_only_the_last_execution(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        pts = _square()
        last = len(pts) - 1
        blocks = [(
            pts,
            [(s, lambda step, p: (4 * p[0] + p[1],))],
            [(dep, lambda step, p: (p[0] - 1, p[1]), lambda step: step < last)],
        )]
        fast, ref = _run(blocks, [0] * len(pts), clamp=None)
        stream = fast._dep_streams[dep]
        # the last block made no dep_points call, so its insert is
        # still pending: only the finalize flush sees the skip
        assert fast._pending is not None and stream.group is not None
        assert assert_same_ddg(fast, ref) == 0
        assert stream.group is None
        assert stream.domain.count == last
        assert fast._stmt_streams[s.key].domain.count == last + 1

    def test_block_without_dep_points_flushed_by_another_block(self):
        a, b = _stmt(0, 2, "load"), _stmt(1, 1, "add")
        dep = DepKey(src=(1, 0), dst=(0, 0), kind=DEP_KINDS[0])
        pts = _square()
        blocks = [
            (
                pts,
                [(a, lambda step, p: (p[0] + 2 * p[1],))],
                [(dep, lambda step, p: (p[1],), lambda step: step != 5)],
            ),
            ([(i,) for i in range(len(pts))], [(b, lambda step, p: ())], []),
        ]
        fast, ref = _run(blocks, [0, 1] * len(pts), clamp=None)
        stream = fast._dep_streams[dep]
        assert stream.group is None and stream.domain.count == len(pts) - 1
        # the pending insert of b's last execution lands in finalize
        assert fast._pending is fast._stmt_groups[b.key]
        assert_same_ddg(fast, ref)

    def test_second_firing_in_one_execution(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        sinks = self._sinks(s)
        for step, p in enumerate(_square()):
            ditems = [(dep, (p[0] - 1, p[1]))]
            if step == 6:
                ditems.append((dep, (p[0], p[1] - 1)))
            _feed(sinks, p, [(s.key, (4 * p[0] + p[1],))], ditems)
            stream = sinks[0]._dep_streams[dep]
            assert (stream.group is None) == (step >= 6)
        # one point per execution, plus the second firing
        assert stream.domain.count == len(_square()) + 1
        assert_same_ddg(*sinks)

    def test_diverged_labels_then_skip(self):
        s = _stmt(0, 2, "add")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        pts = _square(6)

        def src(step, p):
            # steady for 20 executions, then off the shift for good
            return (p[0] - 1, p[1]) if step < 20 else (p[0] * p[1] % 5, 0)

        blocks = [(
            pts,
            [(s, lambda step, p: (p[0] + p[1],))],
            [(dep, src, lambda step: step != 27)],
        )]
        fast, ref = _run(blocks, [0] * len(pts), clamp=None)
        stream = fast._dep_streams[dep]
        assert stream.group is None and stream.partial is not None
        assert stream.domain.count == len(pts) - 1
        assert_same_ddg(fast, ref)

    def test_dep_points_without_its_destinations_instr_points(self):
        a, b = _stmt(0, 2, "load"), _stmt(1, 2, "add")
        dep = DepKey(src=(1, 0), dst=(0, 0), kind=DEP_KINDS[0])
        sinks = self._sinks(a, b)
        pts = _square()
        for step, p in enumerate(pts):
            items_a = [(a.key, (p[0] + p[1],))]
            ditem = [(dep, (p[0], p[1] + 1))]
            if step != 9:
                _feed(sinks, p, items_a, ditem)
                _feed(sinks, p, [(b.key, ())])
            else:
                # a's execution is flushed by b's instr_points before
                # the dependence arrives
                _feed(sinks, p, items_a)
                _feed(sinks, p, [(b.key, ())])
                assert sinks[0]._dep_streams[dep].group is None
                _feed(sinks, p, ditems=ditem)
        assert sinks[0]._dep_streams[dep].domain.count == len(pts)
        assert_same_ddg(*sinks)

    def test_dep_points_at_other_coordinates(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        sinks = self._sinks(s)
        pts = _square()
        for step, p in enumerate(pts):
            # execution 6's batch names the previous execution's point
            q = pts[step - 1] if step == 6 else p
            _feed(sinks, p, [(s.key, (4 * p[0] + p[1],))])
            sinks[0].dep_points(q, [(dep, (q[0] - 1, q[1]))])
            sinks[1].dep_point(dep, q, (q[0] - 1, q[1]))
        assert sinks[0]._dep_streams[dep].group is None
        assert_same_ddg(*sinks)

    def test_one_batched_refit_per_out_of_span_execution(self):
        """Every tracking stream's mismatching columns go to one solve
        per execution, and a column that fails kills only its own
        component: equal to per-point delivery into the reference,
        where each fitter solves alone.  No integer column over an
        affinely independent support fails to fit, so both solvers are
        patched to fail columns that hold 13."""
        a, b = _stmt(0, 2, "load"), _stmt(1, 2, "load")
        dep = DepKey(src=(0, 0), dst=(1, 0), kind=DEP_KINDS[1])
        fit = fastpath.fit_affine_many
        fit_one = fitter.fit_affine
        calls = []

        def failing(points, columns):
            calls.append(len(columns))
            out = fit(points, columns)
            return [None if 13 in c else e for c, e in zip(columns, out)]

        def failing_one(points, values):
            return None if 13 in values else fit_one(points, values)

        fast, ref = sinks = self._sinks(a, b)
        with patch.object(fastpath, "fit_affine_many", failing), \
                patch.object(fitter, "fit_affine", failing_one):
            for p in _square(3):
                i, j = p
                items = [
                    (a.key, (3 * i + j,)),
                    (b.key, (13 if p == (1, 0) else i + j,)),
                ]
                _feed(sinks, p, items, [(dep, (2 * i - 1, j))])
            # (0, 1) and (1, 0) grow the span and refit a, b and dep
            # together; b's later label pieces fit on their own
            assert calls[:3] == [3, 3, 1]
            assert fast._dep_streams[dep].group is not None
            b_fit = fast._stmt_streams[b.key].labels.pieces[0][0]
            assert b_fit._comp_failed == [True]
            assert_same_ddg(fast, ref)

    def test_per_point_entries_raise(self):
        s = _stmt(0, 1, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        fast, _ = self._sinks(s)
        with pytest.raises(TypeError):
            fast.instr_point(s.key, (0,), (0,))
        with pytest.raises(TypeError):
            fast.dep_point(dep, (1,), (0,))

    def test_prefix_batch_of_a_bound_group_is_dropped(self):
        """Only a faulting block delivers a prefix of its statements;
        the sink drops it (the execution ends with the fault)."""
        a, b = _stmt(0, 1, "load"), _stmt(1, 1, "add")
        fast, ref = self._sinks(a, b)
        for i in range(6):
            _feed((fast, ref), (i,), [(a.key, (i,)), (b.key, (2 * i,))])
        fast.instr_points((6,), [(a.key, (6,))])
        assert fast._pending is None
        assert_same_ddg(fast, ref)

    def test_clamped_runs_never_track(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        pts = _square()
        blocks = [(
            pts,
            [(s, lambda step, p: (4 * p[0] + p[1],))],
            [(dep, lambda step, p: (p[0] - 1, p[1]))],
        )]
        fast, ref = _run(blocks, [0] * len(pts), clamp=30)
        assert fast._dep_streams[dep].group is None
        assert_same_ddg(fast, ref)


class TestSharedFolds:
    """Finalize folds each distinct domain once; every folder with the
    same row summary gets the same result, byte-identical to the
    reference's separate folds."""

    def _square(self, n=4):
        return [(i, j) for i in range(n) for j in range(n)]

    def test_dependence_domain_equals_destination_domain(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[1])
        pts = self._square()
        blocks = [(
            pts,
            [(s, lambda step, p: (4 * p[0] + p[1],))],
            [(dep, lambda step, p: (p[0] - 1, p[1]))],
        )]
        fast, ref = _run(blocks, [0] * len(pts), clamp=None)
        # the dependence fired once per execution of its destination's
        # group: its domain, the statement's, and both first label
        # pieces' are one folder, folded once
        assert fast._dep_streams[dep].domain is fast._stmt_streams[s.key].domain
        assert assert_same_ddg(fast, ref) == 0

    def test_statements_of_different_groups_with_equal_rows(self):
        a, b = _stmt(0, 2, "add"), _stmt(1, 2, "add")
        pts = self._square()
        blocks = [
            (pts, [(a, lambda step, p: ())], []),
            (pts, [(b, lambda step, p: ())], []),
        ]
        fast, ref = _run(blocks, [0, 1] * len(pts), clamp=None)
        assert fast._stmt_streams[a.key].domain is not fast._stmt_streams[b.key].domain
        assert assert_same_ddg(fast, ref) == 1

    def test_label_piece_equals_another_streams_domain(self):
        s = _stmt(0, 2, "load")
        dep = DepKey(src=(0, 0), dst=(0, 0), kind=DEP_KINDS[0])
        pts = self._square()

        def label(step, p):  # two label pieces: rows i < 2 and i >= 2
            return (p[0] + p[1],) if p[0] < 2 else (100 + 3 * p[1],)

        blocks = [(pts, [(s, label)], [])]
        fast, ref = _run(blocks, [0] * len(pts), clamp=None)
        # a dependence that only fires on the first label piece's rows
        for p in pts[:8]:
            fast.dep_points(p, [(dep, (p[0], p[1] - 1))])
            ref.dep_point(dep, p, (p[0], p[1] - 1))
        assert len(fast._stmt_streams[s.key].labels.pieces) == 2
        assert assert_same_ddg(fast, ref) == 1

    def test_clamped_streams_share_folds(self):
        a, b = _stmt(0, 2, "load"), _stmt(1, 2, "load")
        dep = DepKey(src=(0, 0), dst=(1, 0), kind=DEP_KINDS[1])
        pts = self._square(5)
        blocks = [
            (pts, [(a, lambda step, p: (p[0] + p[1],))], []),
            (
                pts,
                [(b, lambda step, p: (p[0],))],
                [(dep, lambda step, p: (p[0], p[1]))],
            ),
        ]
        fast, ref = _run(blocks, [0, 1] * len(pts), clamp=10)
        assert fast.clamped_points == ref.clamped_points > 0
        # both statement domains, a's and b's first label pieces and
        # the dependence domain hold the same ten points: one fold
        assert assert_same_ddg(fast, ref) == 4

    def test_declared_statements_never_delivered(self):
        a, top = _stmt(0, 2, "add"), _stmt(1, 0, "add")
        idle = [
            _stmt(2, 2, "add"), _stmt(3, 2, "add"), _stmt(4, 1, "add"),
            _stmt(5, 0, "add"),
        ]
        pts = self._square()
        blocks = [
            (pts, [(a, lambda step, p: ())], []),
            ([()], [(top, lambda step, p: ())], []),
        ]
        fast, ref = _run(blocks, [0] * len(pts) + [1], clamp=None)
        for stmt in idle:
            fast.declare_statement(stmt)
            ref.declare_statement(stmt)
        # the two empty 2-D domains share a fold; the empty 1-D one
        # does not, nor does the empty 0-D one with the executed 0-D
        # statement (no rows either way, but one is the universe)
        assert assert_same_ddg(fast, ref) == 1


def _rows(folder):
    return list(folder._rows())


class TestDomainFolderClone:
    def test_clone_after_cached_inserts_diverges_cleanly(self):
        fast = FastDomainFolder(2)
        ref = DomainFolder(2)
        for j in range(4):  # one prefix: inserts hit the leaf cache
            fast.add((0, j))
            ref.add((0, j))
        twin = fast.clone()
        ref_twin = DomainFolder(2)
        for j in range(4):
            ref_twin.add((0, j))
        # same prefix on both sides, different values
        fast.add((0, 9))
        ref.add((0, 9))
        twin.add((0, -3))
        ref_twin.add((0, -3))
        for i in range(1, 3):
            for j in range(i + 1):
                fast.add((i, j))
                ref.add((i, j))
            twin.add((i, 0))
            ref_twin.add((i, 0))
        twin.add((0, 5))  # back to the first prefix
        ref_twin.add((0, 5))
        assert _rows(fast) == _rows(ref)
        assert _rows(twin) == _rows(ref_twin)
        assert fast.count == ref.count and twin.count == ref_twin.count
        assert fast.fold() == ref.fold() and twin.fold() == ref_twin.fold()

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), max_size=30),
        st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), max_size=30),
    )
    @settings(deadline=None)
    def test_clone_then_random_inserts(self, before, after):
        fast = FastDomainFolder(2)
        ref = DomainFolder(2)
        for p in before:
            fast.add(p)
            ref.add(p)
        twin = fast.clone()
        for p in after:
            twin.add(p)
        ref_twin = DomainFolder(2)
        for p in before + after:
            ref_twin.add(p)
        assert _rows(fast) == _rows(ref)
        assert _rows(twin) == _rows(ref_twin)
