"""Dependence distances without projection: property tests.

``_delta_info`` answers a constant (uniform) distance without calling
``Polyhedron.bounds``, decides which pieces are live once per
dependence, and lets a folded piece's witness point prove it
non-empty.  Both shortcuts must agree exactly with the plain
algorithm: every piece stripped of its witness, ``is_empty`` and
``bounds`` called for every piece and every dimension.  The point
sets below fold into rectangles, triangles, lattices with modulo holes
(bounding-box over-approximations) and multi-piece splits.
"""

from fractions import Fraction
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddg.graph import DepKey
from repro.folding.domains import DomainFolder
from repro.folding.folder import FoldedDep
from repro.poly.affine import AffineExpr, AffineFunction
from repro.poly.pmap import IMap, _sign_pattern
from repro.poly.polyhedron import Polyhedron
from repro.poly.pset import ISet, Space
from repro.schedule.deps import _delta_info

SHAPES = ["box", "triangle", "holes", "split", "scatter"]


@st.composite
def point_sets(draw, dim):
    shape = draw(st.sampled_from(SHAPES))
    n = [draw(st.integers(1, 5)) for _ in range(dim)]
    pts = [()]
    for lvl in range(dim):
        nxt = []
        for p in pts:
            hi = n[lvl]
            if lvl == dim - 1 and dim > 1:
                if shape == "triangle":
                    hi = p[0] + 1
                elif shape == "split":
                    # two trapezoids along the outermost dimension
                    hi = p[0] + 1 if p[0] < n[0] // 2 else n[lvl] + 2
            nxt.extend(p + (x,) for x in range(hi))
        pts = nxt
    if shape == "holes":
        m = draw(st.integers(2, 3))
        pts = [p for p in pts if sum(p) % m] or pts
    elif shape == "scatter":
        pts = draw(
            st.lists(
                st.tuples(*[st.integers(-3, 4)] * dim), min_size=1, max_size=12
            )
        )
    offset = [draw(st.integers(-3, 3)) for _ in range(dim)]
    return [tuple(x + o for x, o in zip(p, offset)) for p in pts]


def _fold(points, dim) -> ISet:
    folder = DomainFolder(dim)
    for p in points:
        folder.add(p)
    return folder.fold()[0]


@st.composite
def producer_exprs(draw, dim, j):
    """``(coeffs . x + const) / den`` near ``x_j - k``: a uniform
    distance when the perturbation is zero, a varying one otherwise."""
    den = draw(st.integers(1, 3))
    coeffs = [den if i == j else 0 for i in range(dim)]
    if draw(st.booleans()):
        coeffs = [c + draw(st.integers(-1, 1)) for c in coeffs]
    return AffineExpr(coeffs, draw(st.integers(-4, 4)), den)


@st.composite
def dependences(draw):
    dim = draw(st.integers(1, 3))
    common = draw(st.integers(1, dim))
    src_dim = draw(st.integers(common, 3))

    def fn():
        return AffineFunction(
            [draw(producer_exprs(dim, j)) for j in range(src_dim)]
        )

    space = Space([f"c{i}" for i in range(dim)])
    key = DepKey(src=(0, 0), dst=(1, 0), kind="flow")
    if draw(st.booleans()):
        # a relation: one function per label piece, each piece folded
        # from its own point set
        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            f = fn()
            dom = _fold(draw(point_sets(dim)), dim)
            pieces.extend((poly, f) for poly in dom.pieces)
        # a piece no point reaches exercises the empty-piece path
        if draw(st.booleans()):
            pieces.append((Polyhedron.box([(1, 0)] * dim), fn()))
        relation = IMap(space, Space([f"p{i}" for i in range(src_dim)]), pieces)
        domain = ISet(space, [p for p, _ in pieces])
        partial = list(fn().exprs)
    else:
        relation = None
        domain = _fold(draw(point_sets(dim)), dim)
        partial = [
            draw(st.one_of(st.none(), producer_exprs(dim, j)))
            for j in range(src_dim)
        ]
    return FoldedDep(
        key=key,
        count=1,
        domain=domain,
        domain_exact=True,
        relation=relation,
        partial_src=partial,
        src_depth=src_dim,
        dst_depth=dim,
    ), common


def _plain(p: Polyhedron) -> Polyhedron:
    """The same constraints with no witness."""
    return Polyhedron.from_normalized(p.dim, eqs=p.eqs, ineqs=p.ineqs)


def _merge(bounds):
    lo_all = hi_all = None
    lo_unb = hi_unb = False
    for lo, hi in bounds:
        if lo is None:
            lo_unb = True
        elif lo_all is None or lo < lo_all:
            lo_all = lo
        if hi is None:
            hi_unb = True
        elif hi_all is None or hi > hi_all:
            hi_all = hi
    return (None if lo_unb else lo_all), (None if hi_unb else hi_all)


def _distance(piece, e: AffineExpr):
    if not e.is_integral():
        e = AffineExpr(e.coeffs, e.const, 1)
    return piece.bounds(e.as_row())


def reference_delta_info(dep: FoldedDep, common: int):
    """Every piece, every dimension, through ``is_empty`` and
    ``bounds`` on witness-free copies."""
    d = dep.dst_depth
    signs: List[str] = []
    bounds = []
    for j in range(common):
        if dep.relation is not None:
            pairs = [(_plain(p), fn[j]) for p, fn in dep.relation.pieces]
            empty = ("0", (Fraction(0), Fraction(0)))
        else:
            expr: Optional[AffineExpr] = (
                dep.partial_src[j] if j < len(dep.partial_src) else None
            )
            if expr is None:
                signs.append("*")
                bounds.append((None, None))
                continue
            pairs = [(_plain(p), expr) for p in dep.domain.pieces]
            empty = ("*", (None, None))
        ranges = [
            _distance(p, AffineExpr.var(j, d) - f)
            for p, f in pairs
            if not p.is_empty()
        ]
        if not ranges:
            signs.append(empty[0])
            bounds.append(empty[1])
            continue
        lo, hi = _merge(ranges)
        signs.append(_sign_pattern(lo, hi))
        bounds.append((lo, hi))
    return tuple(signs), tuple(bounds)


def _same_fractions(got, want):
    assert got == want
    for (glo, ghi), (wlo, whi) in zip(got, want):
        for g, w in ((glo, wlo), (ghi, whi)):
            assert type(g) is type(w)
            if w is not None:
                assert (g.numerator, g.denominator) == (w.numerator, w.denominator)


class TestDeltaInfo:
    @given(dependences())
    @settings(deadline=None)
    def test_shortcuts_match_plain_bounds(self, drawn):
        dep, common = drawn
        signs, bounds = _delta_info(dep, common)
        want_signs, want_bounds = reference_delta_info(dep, common)
        assert signs == want_signs
        _same_fractions(bounds, want_bounds)

    def test_uniform_distance_skips_bounds(self, monkeypatch):
        dom = _fold([(i, j) for i in range(4) for j in range(i + 1)], 2)
        fn = AffineFunction(
            [AffineExpr((1, 0), -1), AffineExpr((0, 1), 0)]
        )
        space = Space(["c0", "c1"])
        dep = FoldedDep(
            key=DepKey(src=(0, 0), dst=(0, 0), kind="flow"),
            count=10,
            domain=dom,
            domain_exact=True,
            relation=IMap(space, Space(["p0", "p1"]), [(dom.pieces[0], fn)]),
            partial_src=list(fn.exprs),
            src_depth=2,
            dst_depth=2,
        )

        def forbidden(*args):
            raise AssertionError("projection on a witnessed uniform piece")

        monkeypatch.setattr(Polyhedron, "bounds", forbidden)
        monkeypatch.setattr(Polyhedron, "eliminate", forbidden)
        assert _delta_info(dep, 2) == (
            ("+", "0"),
            ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))),
        )


@st.composite
def polyhedra(draw):
    dim = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3)] * (dim + 1))
    eqs = draw(st.lists(row, max_size=1))
    ineqs = draw(st.lists(row, max_size=5))
    witness = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    return Polyhedron(dim, eqs=eqs, ineqs=ineqs), witness


class TestWitness:
    @given(polyhedra())
    @settings(deadline=None)
    def test_witness_never_changes_emptiness(self, drawn):
        poly, witness = drawn
        want = poly.is_empty()
        poly.witness = witness
        assert poly.is_empty() == want
        if poly.contains(witness):
            assert not want

    def test_witness_is_outside_equality_and_codec(self):
        from repro.poly.codec import decode_polyhedron, encode_polyhedron

        a = Polyhedron.box([(0, 3), (1, 2)])
        b = Polyhedron.box([(0, 3), (1, 2)])
        a.witness = (0, 1)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert encode_polyhedron(a) == encode_polyhedron(b)
        assert decode_polyhedron(encode_polyhedron(a)).witness is None

    def test_folded_pieces_carry_an_observed_point(self):
        pts = [(i, j) for i in range(5) for j in range(i + 1)]
        pts += [(i, j) for i in range(5, 8) for j in range(3)]
        for points in (pts, [p for p in pts if sum(p) % 2]):
            dom = _fold(points, 2)
            for piece in dom.pieces:
                assert piece.witness in points
                assert piece.contains(piece.witness)
