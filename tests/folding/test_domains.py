"""Domain folder tests: exact trapezoids, splits, over-approximation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.folding import DomainFolder, FastDomainFolder
from repro.poly.polyhedron import Polyhedron


def fold_points(points, dim, max_pieces=6):
    f = DomainFolder(dim)
    for p in points:
        f.add(p)
    return f.fold(max_pieces)


class TestExactShapes:
    def test_box(self):
        pts = [(i, j) for i in range(4) for j in range(3)]
        dom, exact = fold_points(pts, 2)
        assert exact
        assert dom.card() == 12
        assert all(dom.contains(p) for p in pts)

    def test_triangle(self):
        pts = [(i, j) for i in range(5) for j in range(i + 1)]
        dom, exact = fold_points(pts, 2)
        assert exact
        assert len(dom.pieces) == 1
        assert dom.card() == 15
        assert dom.contains((4, 4)) and not dom.contains((2, 3))

    def test_single_point(self):
        dom, exact = fold_points([(7, 8)], 2)
        assert exact and dom.card() == 1

    def test_zero_dim(self):
        dom, exact = fold_points([()], 0)
        assert exact and dom.card() == 1

    def test_1d_range(self):
        dom, exact = fold_points([(i,) for i in range(3, 9)], 1)
        assert exact
        assert dom.card() == 6
        assert dom.contains((3,)) and dom.contains((8,))
        assert not dom.contains((9,))

    def test_3d_prism(self):
        pts = [
            (i, j, k)
            for i in range(3)
            for j in range(i + 1)
            for k in range(2)
        ]
        dom, exact = fold_points(pts, 3)
        assert exact
        assert dom.card() == len(pts)

    def test_shifted_bounds(self):
        # j from i to i+2: affine lower AND upper bounds
        pts = [(i, j) for i in range(4) for j in range(i, i + 3)]
        dom, exact = fold_points(pts, 2)
        assert exact
        assert len(dom.pieces) == 1
        assert dom.card() == 12

    def test_empty(self):
        dom, exact = fold_points([], 2)
        assert exact and dom.is_empty()


class TestSplitting:
    def test_piecewise_inner_bound(self):
        # inner trip count jumps at i == 3: two exact pieces
        pts = [(i, j) for i in range(6) for j in range(3 if i < 3 else 7)]
        dom, exact = fold_points(pts, 2)
        assert exact
        assert len(dom.pieces) == 2
        assert dom.card() == 3 * 3 + 3 * 7

    def test_too_many_pieces_over_approximates(self):
        # inner bound oscillates: not piecewise-affine in <= 2 pieces
        pts = [(i, j) for i in range(8) for j in range((i * 37 % 5) + 1)]
        dom, exact = fold_points(pts, 2, max_pieces=2)
        assert not exact
        # over-approximation is a superset
        assert all(dom.contains(p) for p in pts)


class TestOverApproximation:
    def test_holes_flagged(self):
        pts = [(i,) for i in range(0, 10, 2)]  # stride-2: holes
        dom, exact = fold_points(pts, 1)
        assert not exact
        assert all(dom.contains(p) for p in pts)

    def test_duplicate_points_flagged(self):
        f = DomainFolder(1)
        f.add((0,))
        f.add((0,))
        f.add((1,))
        dom, exact = f.fold()
        assert not exact  # count mismatch reveals re-execution
        assert f.count == 3

    def test_data_dependent_bound(self):
        # "random" inner bounds: bounding box, never exact
        import random

        rng = random.Random(7)
        pts = []
        for i in range(6):
            for j in range(rng.randint(1, 5)):
                pts.append((i, j))
        dom, exact = fold_points(pts, 2, max_pieces=2)
        assert all(dom.contains(p) for p in pts)


class TestProperties:
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_rectangles_always_exact(self, n, m):
        pts = [(i, j) for i in range(n) for j in range(m)]
        dom, exact = fold_points(pts, 2)
        assert exact and dom.card() == n * m

    @given(
        pts=st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_soundness_fold_is_superset(self, pts):
        """The folded domain always contains every observed point, and
        when flagged exact it contains nothing else."""
        dom, exact = fold_points(sorted(pts), 2)
        for p in pts:
            assert dom.contains(p)
        if exact:
            assert dom.card() == len(pts)


def brute_box(points, dim):
    return Polyhedron.box([
        (min(p[i] for p in points), max(p[i] for p in points))
        for i in range(dim)
    ])


def assert_box(dom, points, dim):
    """An inexact fold is exactly the per-dimension min/max box."""
    (piece,) = dom.pieces
    box = brute_box(points, dim)
    assert (piece.eqs, piece.ineqs) == (box.eqs, box.ineqs)


class TestBoundingBox:
    @pytest.mark.parametrize(
        "dim, points",
        [
            # modulo holes
            (1, [(i,) for i in range(-9, 8, 3)]),
            (2, [(i, j) for i in range(-4, 3) for j in range(-6, 5, 2)]),
            (3, [
                (i, j, k)
                for i in range(-2, 2)
                for j in range(3)
                for k in range(-5, 6)
                if (i + j + k) % 2
            ]),
            # data-dependent inner bounds
            (2, [
                (i, j)
                for i in range(-5, 4)
                for j in range(-3, (i * 37 % 7) - 2)
            ]),
            (3, [
                (i, j, k)
                for i in range(-3, 1)
                for j in range(-1, 2)
                for k in range(-((i * 5 + j * 3) % 4) - 1, 1)
            ]),
        ],
    )
    def test_inexact_fold_is_point_box(self, dim, points):
        dom, exact = fold_points(points, dim, max_pieces=2)
        assert not exact
        assert_box(dom, points, dim)

    @given(
        dim=st.integers(1, 3),
        raw=st.sets(
            st.tuples(
                st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_inexact_box(self, dim, raw):
        points = sorted({p[:dim] for p in raw})
        dom, exact = fold_points(points, dim, max_pieces=1)
        if not exact:
            assert_box(dom, points, dim)

    def test_clone_diverges_after_snapshot(self):
        shared = [(i, j) for i in range(-3, 1) for j in range(-4, 4, 2)]
        a = FastDomainFolder(2)
        for p in shared:
            a.add(p)
        a.fold()  # the memoized fold travels with the clone
        b = a.clone()
        a.add((1, 7))
        b.add((1, -9))
        b.add((2, 0))
        for folder, points in (
            (a, shared + [(1, 7)]),
            (b, shared + [(1, -9), (2, 0)]),
        ):
            dom, exact = folder.fold()
            assert not exact
            assert_box(dom, points, 2)
