"""Unit tests for affine expressions, functions, and exact fitting."""

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly import (
    AffineExpr,
    AffineFunction,
    fit_affine,
    fit_affine_function,
    fit_affine_many,
)


class TestAffineExpr:
    def test_eval(self):
        e = AffineExpr((2, -1), 3)  # 2x - y + 3
        assert e((1, 2)) == 3
        assert e.eval_int((0, 0)) == 3

    def test_rational(self):
        e = AffineExpr((1,), 1, 2)  # (x + 1) / 2
        assert e((1,)) == 1
        assert e((2,)) == Fraction(3, 2)
        with pytest.raises(ValueError):
            e.eval_int((2,))

    def test_normalization(self):
        assert AffineExpr((2, 4), 6, 2) == AffineExpr((1, 2), 3, 1)
        assert AffineExpr((1,), 0, -1) == AffineExpr((-1,), 0, 1)

    def test_zero_den_rejected(self):
        with pytest.raises(ValueError):
            AffineExpr((1,), 0, 0)

    def test_algebra(self):
        a = AffineExpr((1, 0), 1)
        b = AffineExpr((0, 1), -1)
        assert (a + b)((3, 4)) == 7
        assert (a - b)((3, 4)) == 1
        assert a.scale(3)((2, 0)) == 9

    def test_substitute_compose(self):
        # f(x, y) = x + 2y; x = u + 1, y = 2u
        f = AffineExpr((1, 2), 0)
        x = AffineExpr((1,), 1)
        y = AffineExpr((2,), 0)
        g = f.substitute([x, y])
        assert g((3,)) == (3 + 1) + 2 * 6

    def test_pretty(self):
        e = AffineExpr((1, -1), 0)
        assert e.pretty(["i", "j"]) == "i - j"
        assert AffineExpr.constant(5, 2).pretty() == "5"

    def test_var_constructor(self):
        v = AffineExpr.var(1, 3)
        assert v((9, 7, 5)) == 7

    def test_as_row(self):
        assert AffineExpr((1, -2), 3).as_row() == (1, -2, 3)
        with pytest.raises(ValueError):
            AffineExpr((1,), 1, 2).as_row()


class TestAffineFunction:
    def test_eval(self):
        f = AffineFunction([AffineExpr((1, 0), 0), AffineExpr((0, 1), -1)])
        assert f.eval_int((5, 3)) == (5, 2)

    def test_compose(self):
        f = AffineFunction([AffineExpr((1, 1), 0)])  # x+y
        g = AffineFunction([AffineExpr((2,), 0), AffineExpr((0,), 1)])  # (2u, 1)
        h = f.compose(g)
        assert h.eval_int((4,)) == (9,)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            AffineFunction([AffineExpr((1,), 0), AffineExpr((1, 0), 0)])


class TestFitAffine:
    def test_exact_line(self):
        pts = [(0,), (1,), (2,), (5,)]
        vals = [3, 5, 7, 13]  # 2x + 3
        e = fit_affine(pts, vals)
        assert e == AffineExpr((2,), 3)

    def test_2d_plane(self):
        pts = [(0, 0), (1, 0), (0, 1), (2, 3)]
        vals = [1, 2, 4, 12]  # x + 3y + 1
        e = fit_affine(pts, vals)
        assert e == AffineExpr((1, 3), 1)

    def test_non_affine_rejected(self):
        pts = [(0,), (1,), (2,)]
        vals = [0, 1, 4]  # x^2
        assert fit_affine(pts, vals) is None

    def test_underdetermined_verified(self):
        # single point: fit must still interpolate it
        e = fit_affine([(3, 4)], [10])
        assert e is not None
        assert e((3, 4)) == 10

    def test_rational_coefficient(self):
        pts = [(0,), (2,), (4,)]
        vals = [0, 1, 2]  # x / 2
        e = fit_affine(pts, vals)
        assert e == AffineExpr((1,), 0, 2)

    def test_empty(self):
        assert fit_affine([], []) is None

    def test_constant(self):
        e = fit_affine([(0, 0), (5, 9)], [7, 7])
        assert e is not None and e.is_constant()
        assert e((100, -3)) == 7

    def test_fit_function(self):
        pts = [(0, 0), (0, 1), (1, 0), (2, 2)]
        vecs = [(p[0], p[1] - 1) for p in pts]
        f = fit_affine_function(pts, vecs)
        assert f is not None
        assert f.eval_int((4, 7)) == (4, 6)

    def test_fit_function_partial_failure(self):
        pts = [(0,), (1,), (2,)]
        vecs = [(0, 0), (1, 1), (2, 4)]  # second component non-affine
        assert fit_affine_function(pts, vecs) is None


class TestFitAffineSystems:
    """The interpolation systems ``[1, *p] . (k, c) = v`` that
    ``fit_affine`` solves: unique, inconsistent, underdetermined and
    rational solutions."""

    def test_unique(self):
        # k + c0 = 3, k - c0 = 1 -> (k, c0) = (2, 1)
        assert fit_affine([(1,), (-1,)], [3, 1]) == AffineExpr((1,), 2)

    def test_inconsistent(self):
        assert fit_affine([(1, 1), (1, 1)], [1, 2]) is None

    def test_underdetermined_pins_free(self):
        # k + c0 = 5: the coordinate coefficient is pinned to 0
        assert fit_affine([(1,)], [5]) == AffineExpr((0,), 5)

    def test_rational_result(self):
        # 2 c0 = 3 (with k = 0 from the origin sample)
        assert fit_affine([(0,), (2,)], [0, 3]) == AffineExpr((3,), 0, 2)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=4,
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_solutions_verify(self, pts, k, x, y):
        vals = [k + a * x + b * y for (a, b) in pts]
        e = fit_affine(pts, vals)
        assert e is not None  # consistent by construction
        for p, v in zip(pts, vals):
            assert e(p) == v


# -- differential oracle: the all-rows rational formulation -----------------


def solve_rational(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Solve ``A x = b`` exactly over the rationals by Gauss-Jordan
    elimination: one solution with free variables pinned to 0, or
    ``None`` when the system is inconsistent."""
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    nrows = len(m)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[Tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(nrows):
        if all(x == 0 for x in m[i][:ncols]) and m[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for (ri, ci) in pivots:
        sol[ci] = m[ri][ncols]
    return sol


def oracle_fit(points, values) -> Optional[Tuple[Tuple[int, ...], int, int]]:
    """Solve over *all* sample rows (constant column first), then
    verify every sample with Fractions."""
    if not points:
        return None
    rows = [[Fraction(1)] + [Fraction(c) for c in p] for p in points]
    sol = solve_rational(rows, [Fraction(v) for v in values])
    if sol is None:
        return None
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    e = AffineExpr([int(x * den) for x in sol[1:]], int(sol[0] * den), den)
    for p, v in zip(points, values):
        if e(p) != v:
            return None
    return e.coeffs, e.const, e.den


def _key(e: Optional[AffineExpr]):
    return None if e is None else (e.coeffs, e.const, e.den)


@st.composite
def fit_systems(draw):
    """Samples ``p = den * q + r`` (so values affine in ``q`` are affine
    in ``p`` with denominator ``den``), with duplicate and collinear
    samples, plus several value columns of mixed kinds."""
    d = draw(st.integers(0, 4))
    den = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-6, 6), st.integers(-(2**42), 2**42))
    r = draw(st.tuples(*[coord] * d))
    qs: List[Tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "collinear"]))
        if kind == "duplicate" and qs:
            q = draw(st.sampled_from(qs))
        elif kind == "collinear" and len(qs) >= 2:
            t = draw(st.integers(-3, 3))
            q = tuple(a + t * (b - a) for a, b in zip(qs[-2], qs[-1]))
        else:
            q = draw(st.tuples(*[coord] * d))
        qs.append(q)
    pts = [tuple(den * x + y for x, y in zip(q, r)) for q in qs]
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["affine_den", "affine", "random"]))
        if kind == "random":
            cols.append(draw(st.lists(
                st.integers(-5, 5), min_size=len(pts), max_size=len(pts)
            )))
            continue
        c = draw(st.tuples(*[st.integers(-5, 5)] * d))
        k = draw(st.integers(-9, 9))
        src = qs if kind == "affine_den" else pts
        cols.append([sum(a * x for a, x in zip(c, p)) + k for p in src])
    return pts, cols


class TestFitAffineOracle:
    def test_agreement_with_rational_solver(self):
        pts = [(1, 0), (3, -1), (0, 1), (2, 2)]
        vals = [5, 1, 4, 7]
        assert _key(fit_affine(pts, vals)) == oracle_fit(pts, vals)
        pts, vals = pts[:3], vals[:3]
        assert _key(fit_affine(pts, vals)) == oracle_fit(pts, vals)

    @given(fit_systems())
    @settings(max_examples=400, deadline=None)
    def test_matches_all_rows_oracle(self, system):
        pts, cols = system
        many = fit_affine_many(pts, cols)
        assert len(many) == len(cols)
        for col, e in zip(cols, many):
            want = oracle_fit(pts, col)
            assert _key(fit_affine(pts, col)) == want
            assert _key(e) == want

    @given(fit_systems(), fit_systems(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_many_columns_are_independent(self, system, other, split):
        """The basis comes from the point columns alone, so a column's
        fit does not depend on the columns beside it: one batched call
        equals the concatenated separate calls (the fast folding sink
        refits all of a group's streams with one call)."""
        pts, cols = system
        a, b = cols[:split], cols[split:]
        # columns of another system, re-sampled on these points
        b = b + [
            [c[i % len(c)] for i in range(len(pts))] for c in other[1]
        ]
        both = [_key(e) for e in fit_affine_many(pts, a + b)]
        apart = [_key(e) for e in fit_affine_many(pts, a)]
        apart += [_key(e) for e in fit_affine_many(pts, b)]
        assert both == apart

    def test_many_empty(self):
        assert fit_affine_many([], [[], []]) == [None, None]
        assert fit_affine_many([(1, 2)], []) == []
