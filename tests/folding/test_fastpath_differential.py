"""Differential tests: ``FastVectorFitter`` against the reference
``VectorAffineFitter``, decision by decision.

Streams live on random affine subspaces of rank 0..d and carry either
shift labels (``value == point + shift``, the dependence steady state)
or general affine labels (rational coefficients included), followed by
late off-subspace and off-label points.  The fast fitter must make
exactly the reference's accept/reject decisions and end with equal
results.  A membership property checks the equality-form span against
a brute-force rank computation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.folding import FastVectorFitter, VectorAffineFitter
from repro.poly.linalg import rank

#: tail point kinds after the steady prefix ("on" = in the subspace,
#: on the label function)
TAIL_KINDS = ["on", "on", "off_label", "off_space", "off_both", "bad_arity"]


@st.composite
def streams(draw):
    """(dim, out_dim, [(point, values)]) on a random affine subspace."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(0, d))
    small = st.integers(-3, 3)
    origin = tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
    dirs = [
        tuple(draw(st.lists(small, min_size=d, max_size=d))) for _ in range(r)
    ]
    # points step by ``m`` along each direction, so labels that divide
    # by ``m`` stay integral: rational fits (den > 1) appear
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        out_dim = d
        shift = tuple(draw(st.lists(small, min_size=d, max_size=d)))

        def label(p):
            return tuple(x + s for x, s in zip(p, shift))

    else:
        out_dim = draw(st.integers(1, 3))
        comps = [
            (
                tuple(draw(st.lists(small, min_size=d, max_size=d))),
                draw(st.integers(-9, 9)),
            )
            for _ in range(out_dim)
        ]

        def label(p):
            rel = [x - o for x, o in zip(p, origin)]
            return tuple(
                sum(a * x for a, x in zip(c, rel)) // m + k for c, k in comps
            )

    def on_space():
        ts = draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
        p = list(origin)
        for t, v in zip(ts, dirs):
            for j in range(d):
                p[j] += m * t * v[j]
        return tuple(p)

    def off_space():
        return tuple(draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d)))

    def bump(vals):
        i = draw(st.integers(0, out_dim - 1))
        delta = draw(st.sampled_from([-2, -1, 1, 3]))
        return vals[:i] + (vals[i] + delta,) + vals[i + 1:]

    steady = draw(st.integers(0, 25))
    kinds = ["on"] * steady + draw(st.lists(st.sampled_from(TAIL_KINDS), max_size=12))
    out = []
    for kind in kinds:
        p = off_space() if kind in ("off_space", "off_both") else on_space()
        v = label(p)
        if kind in ("off_label", "off_both"):
            v = bump(v)
        elif kind == "bad_arity":
            v = v + (0,)
        out.append((p, v))
    return d, out_dim, out


def assert_same_results(fast: FastVectorFitter, ref: VectorAffineFitter):
    assert fast.count == ref.count
    assert fast.failed == ref.failed
    assert fast.result() == ref.result()
    assert fast.component_results() == [f.result() for f in ref.fitters]


class TestDecisionByDecision:
    @given(streams())
    @settings(deadline=None)
    def test_try_add_matches_would_accept_then_add(self, stream):
        d, out_dim, points = stream
        fast = FastVectorFitter(d, out_dim)
        ref = VectorAffineFitter(d, out_dim)
        for p, v in points:
            want = ref.would_accept(p, v)
            if want:
                ref.add(p, v)
            assert fast.try_add(p, v) == want
            assert_same_results(fast, ref)

    @given(streams())
    @settings(deadline=None)
    def test_add_matches_add(self, stream):
        d, out_dim, points = stream
        fast = FastVectorFitter(d, out_dim)
        ref = VectorAffineFitter(d, out_dim)
        for p, v in points:
            fast.add(p, v)
            ref.add(p, v)
            assert_same_results(fast, ref)

    @given(streams())
    @settings(deadline=None)
    def test_clone_is_independent(self, stream):
        d, out_dim, points = stream
        half = len(points) // 2
        fast = FastVectorFitter(d, out_dim)
        ref = VectorAffineFitter(d, out_dim)
        for p, v in points[:half]:
            if ref.would_accept(p, v):
                ref.add(p, v)
            fast.try_add(p, v)
        snap = fast.clone()
        for p, v in points[half:]:
            fast.add(p, v)
        # the clone still holds the pre-divergence state
        assert_same_results(snap, ref)
        for p, v in points[half:]:
            want = ref.would_accept(p, v)
            if want:
                ref.add(p, v)
            assert snap.try_add(p, v) == want
        assert_same_results(snap, ref)


def _brute_in_span(support, q) -> bool:
    origin = support[0]
    diffs = [tuple(b - a for a, b in zip(origin, s)) for s in support[1:]]
    qd = tuple(b - a for a, b in zip(origin, q))
    return rank(diffs + [qd]) == rank(diffs)


class TestEqualityFormSpan:
    @given(streams(), st.data())
    @settings(deadline=None)
    def test_membership_matches_rank(self, stream, data):
        d, out_dim, points = stream
        fast = FastVectorFitter(d, out_dim)
        for p, v in points:
            fast.add(p, v)
        if not fast._support:
            return
        support = fast._support
        # the support stays affinely independent
        origin = support[0]
        diffs = [tuple(b - a for a, b in zip(origin, s)) for s in support[1:]]
        assert rank(diffs) == len(diffs)
        assert (not fast._eqs) == (len(diffs) == d)
        queries = [p for p, _ in points] + data.draw(
            st.lists(
                st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=8
            )
        )
        for q in queries:
            assert fast._in_span(q) == _brute_in_span(support, q)

    def test_full_rank_has_no_equalities(self):
        fast = FastVectorFitter(2, 1)
        for p in [(0, 0), (1, 0), (0, 1)]:
            fast.add(p, (sum(p),))
        assert fast._eqs == []
        assert fast._in_span((7, -3))

    def test_unit_equalities_survive_a_diagonal_step(self):
        fast = FastVectorFitter(3, 1)
        fast.add((1, 2, 3), (0,))
        fast.add((2, 3, 3), (0,))  # grows along (1, 1, 0)
        assert fast._in_span((5, 6, 3))
        assert not fast._in_span((5, 5, 3))
        assert not fast._in_span((5, 6, 4))
        # p[2] == 3 is the untouched unit equality
        assert ((2,), (1,), 3) in fast._eqs


class TestSupportShift:
    def test_shift_tracks_the_support(self):
        fast = FastVectorFitter(2, 2)
        for i in range(4):
            for j in range(4):
                assert fast.try_add((i, j), (i + 1, j))
        assert fast._shift == (1, 0)
        # in span but off the shift: rejected, nothing changes
        assert not fast.try_add((2, 2), (2, 2))
        assert fast._shift == (1, 0) and fast.count == 16

    def test_shift_cleared_by_an_off_shift_support_point(self):
        fast = FastVectorFitter(1, 1)
        fast.add((0,), (0,))
        assert fast._shift == (0,)
        fast.add((1,), (2,))  # new support point at distance 1
        assert fast._shift is None
        assert fast.try_add((2,), (4,))
        assert not fast.try_add((3,), (3,))

    def test_no_shift_across_arities(self):
        fast = FastVectorFitter(2, 1)
        fast.add((0, 0), (0,))
        assert fast._shift is None
