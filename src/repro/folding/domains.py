"""Recursive trapezoidal folding of iteration-domain point streams.

A statement's dynamic instances arrive as integer points in execution
(lexicographic) order.  The :class:`DomainFolder` keeps only a nested
prefix structure -- for every distinct outer-coordinate prefix, the
(min, max, count) summary of the innermost dimension -- and, at
``fold()`` time, reconstructs a union of affinely-bounded polyhedra:

1. each innermost run must be *contiguous* (count == max-min+1);
2. the lower and upper innermost bounds must be exact affine functions
   of the prefix (both fitted by one
   :func:`~repro.poly.affine.fit_affine_many` call);
3. the set of prefixes must itself fold, recursively.

Triangular loops (``j <= i``) fold exactly; domains with modulo holes
or data-dependent bounds fall back to a *bounding-trapezoid
over-approximation* flagged inexact -- the paper's treatment of
non-affine program parts (section 5, "Over-approximations"; also why
heartwall/hotspot/lud report low %Aff in Table 5: lattice-shaped
domains are not recognized as fully affine).

If affine bounds fail globally, the folder retries after *splitting*
along the outermost dimension into at most ``max_pieces`` segments,
which captures piecewise-affine shapes (e.g. a loop peeled by an inner
conditional).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..poly.affine import AffineExpr, fit_affine_many
from ..poly.polyhedron import Polyhedron
from ..poly.pset import ISet, Space


class DomainFolder:
    """Streaming fold of one statement's iteration-domain points."""

    __slots__ = ("dim", "count", "_tree")

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.count = 0
        # nested dicts keyed by coords[0..dim-2]; leaves are
        # [min, max, count] of coords[dim-1]
        self._tree: Dict = {}

    def add(self, coords: Sequence[int]) -> None:
        if len(coords) != self.dim:
            raise ValueError("coordinate arity mismatch")
        self.count += 1
        if self.dim == 0:
            return
        node = self._tree
        for c in coords[:-1]:
            nxt = node.get(c)
            if nxt is None:
                nxt = {}
                node[c] = nxt
            node = nxt
        last = coords[-1]
        leaf = node.get("__leaf__")
        if leaf is None:
            node["__leaf__"] = [last, last, 1]
        else:
            if last < leaf[0]:
                leaf[0] = last
            if last > leaf[1]:
                leaf[1] = last
            leaf[2] += 1

    # -- folding ----------------------------------------------------------------

    def fold(self, max_pieces: int = 6) -> Tuple[ISet, bool]:
        """Produce (domain, exact).  ``domain`` is always a superset of
        the observed points; ``exact`` means it is *equal* to them."""
        return self.fold_summary(self.row_summary(), max_pieces)

    def row_summary(self) -> Tuple[Tuple[Tuple[int, ...], int, int, int], ...]:
        """The ``(prefix, lo, hi, cnt)`` rows in lexicographic order.
        With ``dim`` and ``count == 0`` they are everything
        :meth:`fold_summary` reads, so two folders with equal summaries
        fold to equal results."""
        return tuple(self._rows())

    def fold_summary(self, rows, max_pieces: int = 6) -> Tuple[ISet, bool]:
        """:meth:`fold` from this folder's :meth:`row_summary`."""
        space = Space([f"c{i}" for i in range(self.dim)])
        if self.count == 0:
            return ISet.empty(space), True
        if self.dim == 0:
            return ISet(space, [Polyhedron.universe(0)]), True
        piece = self._fold_rows(rows)
        if piece is not None:
            return ISet(space, [piece]), True
        # piecewise retry: split along the outermost dimension
        pieces = self._fold_split(rows, max_pieces)
        if pieces is not None:
            return ISet(space, pieces), True
        return self._bounding_box(space, rows), False

    def _rows(self):
        """Yield (prefix, lo, hi, cnt) rows in lexicographic order."""

        def rec(node, prefix, depth):
            if depth == self.dim - 1:
                leaf = node["__leaf__"] if "__leaf__" in node else None
                if leaf is not None:
                    yield prefix, leaf[0], leaf[1], leaf[2]
                return
            for c in sorted(k for k in node if k != "__leaf__"):
                yield from rec(node[c], prefix + (c,), depth + 1)

        if self.dim == 1:
            leaf = self._tree.get("__leaf__")
            if leaf is not None:
                yield (), leaf[0], leaf[1], leaf[2]
        else:
            yield from rec(self._tree, (), 0)

    def _fold_rows(self, rows) -> Optional[Polyhedron]:
        """Fold a set of rows into a single exact trapezoid, or None."""
        d = self.dim
        # 1. contiguity of every innermost run
        for prefix, lo, hi, cnt in rows:
            if cnt != hi - lo + 1:
                return None  # holes (or duplicate points): not exact
        prefixes = [r[0] for r in rows]
        los = [r[1] for r in rows]
        his = [r[2] for r in rows]
        # 2. affine innermost bounds over the prefix coordinates
        if d > 1:
            lo_fn, hi_fn = fit_affine_many(prefixes, [los, his])
        else:
            lo_fn, hi_fn = AffineExpr((), los[0]), AffineExpr((), his[0])
        if lo_fn is None or hi_fn is None:
            return None
        if not (lo_fn.is_integral() and hi_fn.is_integral()):
            return None
        # 3. prefix set folds exactly (recursively)
        if d > 1:
            sub = DomainFolder(d - 1)
            for p in prefixes:
                sub.add(p)
            pset, exact = sub.fold(max_pieces=1)
            if not exact or len(pset.pieces) != 1:
                return None
            prefix_poly = pset.pieces[0]
        else:
            prefix_poly = Polyhedron.universe(0)
        # assemble: lift prefix constraints to d dims, add bounds on c_{d-1}
        eqs = [r[: d - 1] + (0,) + r[d - 1:] for r in prefix_poly.eqs]
        ineqs = [r[: d - 1] + (0,) + r[d - 1:] for r in prefix_poly.ineqs]
        # c_{d-1} - lo(prefix) >= 0
        lo_row = tuple(-c for c in lo_fn.coeffs) + (1, -lo_fn.const)
        # hi(prefix) - c_{d-1} >= 0
        hi_row = tuple(hi_fn.coeffs) + (-1, hi_fn.const)
        poly = Polyhedron(d, eqs=eqs, ineqs=ineqs + [lo_row, hi_row])
        poly.witness = prefixes[0] + (los[0],)  # an observed point
        return poly

    def _fold_split(self, rows, max_pieces: int) -> Optional[List[Polyhedron]]:
        """Greedy segmentation along the outermost coordinate."""
        if self.dim < 2 or max_pieces <= 1:
            return None
        # group rows by outermost coordinate value
        groups: Dict[int, List] = {}
        for r in rows:
            groups.setdefault(r[0][0], []).append(r)
        keys = sorted(groups)
        pieces: List[Polyhedron] = []
        # the open segment's rows and their (already folded) piece
        current: List = []
        piece: Optional[Polyhedron] = None
        i = 0
        while i < len(keys):
            candidate = current + groups[keys[i]]
            folded = self._fold_rows(candidate)
            if folded is not None:
                current, piece = candidate, folded
                i += 1
                continue
            if not current:
                return None  # a single outer value does not fold
            pieces.append(piece)
            if len(pieces) >= max_pieces:
                return None
            current, piece = [], None
        if current:
            pieces.append(piece)
        if len(pieces) > max_pieces:
            return None
        return pieces

    def _bounding_box(self, space: Space, rows) -> ISet:
        """Per-dimension (min, max) box of the points, from the
        ``_rows()`` summary (only needed when a fold is inexact)."""
        d = self.dim
        bounds = [
            (min(r[0][i] for r in rows), max(r[0][i] for r in rows))
            for i in range(d - 1)
        ]
        bounds.append((min(r[1] for r in rows), max(r[2] for r in rows)))
        box = Polyhedron.box(bounds)
        box.witness = rows[0][0] + (rows[0][1],)  # an observed point
        return ISet(space, [box])


def fold_under(folder: "DomainFolder", max_pieces: int = 6) -> "ISet":
    """Under-approximation of a folded domain (paper section 10's
    future-work item, implemented here).

    Where :meth:`DomainFolder.fold` over-approximates non-trapezoidal
    point sets (sound for *disproving* transformations), an
    under-approximation -- a polyhedral subset of the observed points
    -- is what one needs to *assert* that a transformation pays off on
    at least part of the domain.  We build it from the rows that do
    fold: contiguous innermost runs whose bounds admit a piecewise
    affine fit, dropping (never widening) everything else.
    """
    space = Space([f"c{i}" for i in range(folder.dim)])
    if folder.count == 0 or folder.dim == 0:
        dom, exact = folder.fold(max_pieces)
        return dom if exact else ISet.empty(space)
    rows = [r for r in folder._rows() if r[3] == r[2] - r[1] + 1]
    if not rows:
        return ISet.empty(space)
    # greedy segmentation (as in _fold_split) but skipping bad segments
    groups: Dict[Tuple[int, ...], List] = {}
    for r in rows:
        groups.setdefault(r[0][:1] if folder.dim > 1 else (), []).append(r)
    pieces: List[Polyhedron] = []
    # the open segment's rows and their (already folded) piece
    current: List = []
    piece: Optional[Polyhedron] = None
    for key in sorted(groups):
        candidate = current + groups[key]
        folded = folder._fold_rows(candidate)
        if folded is not None:
            current, piece = candidate, folded
            continue
        if current:
            if len(pieces) < max_pieces:
                pieces.append(piece)
            # try to start fresh with this group; drop it if even alone
            # it does not fold (under-approximation may discard points)
            piece = folder._fold_rows(groups[key])
        else:
            piece = None  # the candidate was this group alone
        current = groups[key] if piece is not None else []
    if current and len(pieces) < max_pieces:
        pieces.append(piece)
    return ISet(space, pieces)
