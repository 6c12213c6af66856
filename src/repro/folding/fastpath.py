"""Fast folding backend: the hot-path implementation of the sink.

Folding dominates Instrumentation II + fold wall time (the affine
fitters and domain folders absorb one call per dynamic point), so the
fast execution engine pairs the batched builder with this optimized
backend.  The reference classes in :mod:`repro.folding.fitter`,
:mod:`repro.folding.piecewise`, and :mod:`repro.folding.folder` stay
untouched as the executable specification; everything here is verified
bit-identical against them by the engine-equivalence tests.

The optimizations, each argued exact:

* **Shared affine span** (:class:`FastVectorFitter`).  In the
  reference, a vector fitter keeps one scalar fitter per label
  component, each with its own support set and integer echelon span --
  but support evolution is *value-independent*: a live component
  appends the point if and only if the point lies outside the affine
  span of the support, and fails only on an in-span contradiction.
  All live components therefore share one support list and one span
  basis, turning ``out_dim`` span reductions per point into one.

* **Fused accept-and-add** (:meth:`FastVectorFitter.try_add`).  The
  reference piecewise folder calls ``would_accept`` and then ``add``,
  evaluating every component expression (and often the span test)
  twice per point.  ``try_add`` performs one evaluation pass and one
  span test, mutating only when the reference would have accepted.

* **GCD-free span membership**.  Row reduction scales the candidate
  vector by pivot values; scaling never changes which entries are
  zero, so the membership test skips the gcd normalization the
  reference applies per reduction step (normalization is kept when
  *inserting* rows, so the stored basis is identical to the
  reference's).  Python's exact big integers make the intermediate
  growth safe.

* **One multi-column refit** (:meth:`FastVectorFitter._refit`).  The
  first point and every out-of-span mismatch refit all affected
  components with one :func:`~repro.poly.affine.fit_affine_many` call
  over the shared support -- one basis and one elimination, with
  canonical form and verification per component -- instead of one
  solve per component.  A component whose column fails still fails
  alone, exactly as a separate solve would.

* **Shared domain folders + memoized folds**
  (:class:`FastDomainFolder`, :class:`FastFoldingSink`).  All
  statements of one executed (block, context) receive exactly the
  same coordinate stream, so the sink folds their common iteration
  domain once: one tree insertion per block execution instead of one
  per instruction, and one ``fold()`` per group at finalize instead of
  one per statement.  An insertion only walks the prefix tree (no
  per-point min/max: an inexact fold derives its bounding box from the
  tree), so :meth:`FastDomainFolder.clone` copies the tree alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ddg.graph import Statement, StmtKey
from ..poly.affine import AffineExpr, AffineFunction, fit_affine_many
from ..poly.pset import ISet
from .domains import DomainFolder
from .fitter import _vec_gcd
from .folder import FoldingSink


def _copy_tree(node: Dict) -> Dict:
    out = {}
    for k, v in node.items():
        if type(v) is dict:
            out[k] = _copy_tree(v)
        else:
            out[k] = v[:]  # leaf [min, max, count]
    return out


class FastDomainFolder(DomainFolder):
    """DomainFolder with a memoized :meth:`fold` and cheap cloning.

    Shared-group folders are folded once per member statement at
    finalize time; the cache makes every fold after the first free.
    :meth:`clone` snapshots the folder for the alias-until-divergence
    sharing the sink does between a stream's domain and the domain of
    its first label piece.
    """

    __slots__ = ("_fold_cache",)

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self._fold_cache: Optional[Tuple[int, Tuple[ISet, bool]]] = None

    def add(self, coords: Sequence[int]) -> None:
        self._fold_cache = None
        super().add(coords)

    def fold(self, max_pieces: int = 6) -> Tuple[ISet, bool]:
        cached = self._fold_cache
        if cached is not None and cached[0] == max_pieces:
            return cached[1]
        result = super().fold(max_pieces)
        self._fold_cache = (max_pieces, result)
        return result

    def clone(self) -> "FastDomainFolder":
        c = FastDomainFolder.__new__(FastDomainFolder)
        c.dim = self.dim
        c.count = self.count
        c._tree = _copy_tree(self._tree)
        c._fold_cache = self._fold_cache
        return c


class FastVectorFitter:
    """Vector affine fitter with one shared support/span.

    Mirrors ``VectorAffineFitter`` exactly (see the module docstring
    for why sharing is sound).  Two entry points:

    * :meth:`try_add` -- the piecewise-folder protocol: accept-or-
      reject atomically, equivalent to reference ``would_accept`` +
      ``add``;
    * :meth:`add` -- the independent-components protocol of the global
      per-dependence fit, where components fail individually.
    """

    __slots__ = (
        "dim", "out_dim", "count", "failed",
        "_support", "_values", "_rows", "_pivots", "_origin",
        "_exprs", "_coeffs", "_consts", "_dens", "_comp_failed", "_live",
    )

    def __init__(self, dim: int, out_dim: int) -> None:
        self.dim = dim
        self.out_dim = out_dim
        self.count = 0
        self.failed = False
        self._support: List[Tuple[int, ...]] = []
        self._values: List[List[int]] = [[] for _ in range(out_dim)]
        self._rows: List[List[int]] = []
        self._pivots: List[int] = []
        self._origin: Optional[Tuple[int, ...]] = None
        self._exprs: List[Optional[AffineExpr]] = [None] * out_dim
        self._coeffs: List = [None] * out_dim
        self._consts: List[int] = [0] * out_dim
        self._dens: List[int] = [1] * out_dim
        self._comp_failed: List[bool] = [False] * out_dim
        self._live = out_dim

    # -- shared span -----------------------------------------------------------

    def _in_span(self, point: Tuple[int, ...]) -> bool:
        origin = self._origin
        if origin is None:
            return False
        rows = self._rows
        if len(rows) == self.dim:
            return True
        v = [b - a for a, b in zip(origin, point)]
        for row, piv in zip(rows, self._pivots):
            if v[piv]:
                a, b = row[piv], v[piv]
                v = [a * x - b * y for x, y in zip(v, row)]
        return not any(v)

    def _append(self, point: Tuple[int, ...], values: Sequence[int]) -> None:
        """Grow the shared support (point is outside the span)."""
        self._support.append(point)
        comp_failed = self._comp_failed
        vlists = self._values
        for i in range(self.out_dim):
            if not comp_failed[i]:
                vlists[i].append(int(values[i]))
        origin = self._origin
        if origin is None:
            self._origin = point
            return
        # insertion keeps the reference's gcd-normalized echelon rows
        v = [b - a for a, b in zip(origin, point)]
        rows = self._rows
        for row, piv in zip(rows, self._pivots):
            if v[piv]:
                a, b = row[piv], v[piv]
                v = [a * x - b * y for x, y in zip(v, row)]
                g = _vec_gcd(v)
                if g > 1:
                    v = [x // g for x in v]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append(v)
            self._pivots.append(piv)

    # -- fitting ----------------------------------------------------------------

    def _refit(self, comps: Sequence[int]) -> None:
        """Refit components ``comps`` over the shared support with one
        multi-column solve."""
        vlists = self._values
        exprs = fit_affine_many(self._support, [vlists[i] for i in comps])
        for i, expr in zip(comps, exprs):
            if expr is None:
                self._comp_fail(i)
            else:
                self._exprs[i] = expr
                self._coeffs[i] = expr.coeffs
                self._consts[i] = expr.const
                self._dens[i] = expr.den

    def _comp_fail(self, i: int) -> None:
        self._comp_failed[i] = True
        self._exprs[i] = None
        self._coeffs[i] = None
        self._values[i] = []
        self._live -= 1

    def try_add(self, point: Sequence[int], values: Sequence[int]) -> bool:
        """Accept-and-absorb, or reject without mutation.

        Equivalent to reference ``would_accept(point, values)``
        followed (on True) by ``add(point, values)``: the vector
        accepts iff every component matches its expression or the
        point lies outside the shared span.
        """
        if self.failed or len(values) != self.out_dim:
            return False
        point = tuple(point)
        if not self._support:
            self.count += 1
            self._append(point, values)
            self._refit(range(self.out_dim))
            return True
        coeffs = self._coeffs
        consts = self._consts
        dens = self._dens
        comp_failed = self._comp_failed
        mismatch: Optional[List[int]] = None
        for i in range(self.out_dim):
            if comp_failed[i]:
                # a dead component rejects everything (reference
                # would_accept semantics)
                return False
            num = consts[i]
            for c, x in zip(coeffs[i], point):
                num += c * x
            if num != int(values[i]) * dens[i]:
                if mismatch is None:
                    mismatch = [i]
                else:
                    mismatch.append(i)
        if mismatch is None:
            self.count += 1
            if not self._in_span(point):
                self._append(point, values)
            return True
        if self._in_span(point):
            return False
        self.count += 1
        self._append(point, values)
        self._refit(mismatch)
        return True

    def add(self, point: Sequence[int], values: Sequence[int]) -> None:
        """Independent-components absorb (the global per-dep fit)."""
        self.count += 1
        if len(values) != self.out_dim:
            self.failed = True
            return
        if not self._live:
            return
        point = tuple(point)
        if not self._support:
            self._append(point, values)
            self._refit(range(self.out_dim))
            return
        coeffs = self._coeffs
        consts = self._consts
        dens = self._dens
        comp_failed = self._comp_failed
        mismatch: Optional[List[int]] = None
        for i in range(self.out_dim):
            if comp_failed[i]:
                continue
            num = consts[i]
            for c, x in zip(coeffs[i], point):
                num += c * x
            if num != int(values[i]) * dens[i]:
                if mismatch is None:
                    mismatch = [i]
                else:
                    mismatch.append(i)
        if mismatch is None:
            if not self._in_span(point):
                self._append(point, values)
            return
        if self._in_span(point):
            for i in mismatch:
                self._comp_fail(i)
            return
        self._append(point, values)
        self._refit(mismatch)

    def clone(self) -> "FastVectorFitter":
        """Snapshot for alias-until-divergence sharing.  Support point
        tuples and span rows are immutable after insertion, so only
        the containers are copied."""
        c = FastVectorFitter.__new__(FastVectorFitter)
        c.dim = self.dim
        c.out_dim = self.out_dim
        c.count = self.count
        c.failed = self.failed
        c._support = self._support[:]
        c._values = [v[:] for v in self._values]
        c._rows = self._rows[:]
        c._pivots = self._pivots[:]
        c._origin = self._origin
        c._exprs = self._exprs[:]
        c._coeffs = self._coeffs[:]
        c._consts = self._consts[:]
        c._dens = self._dens[:]
        c._comp_failed = self._comp_failed[:]
        c._live = self._live
        return c

    # -- results ----------------------------------------------------------------

    def result(self) -> Optional[List[AffineExpr]]:
        """All-components result (reference VectorAffineFitter)."""
        if self.failed or self.count == 0:
            return None
        out = []
        for i in range(self.out_dim):
            if self._comp_failed[i]:
                return None
            e = self._exprs[i]
            if e is None:  # pragma: no cover - defensive
                return None
            out.append(e)
        return out

    def component_results(self) -> List[Optional[AffineExpr]]:
        """Per-component results (None where the component failed)."""
        if self.count == 0:
            return [None] * self.out_dim
        return [
            None if self._comp_failed[i] else self._exprs[i]
            for i in range(self.out_dim)
        ]


class FastPiecewiseVectorFolder:
    """Piecewise folder over :class:`FastVectorFitter` pieces.

    Same assignment policy as the reference ``PiecewiseVectorFolder``
    (first accepting piece wins; a point no piece accepts opens a new
    one until the budget kills the stream), with the accept test and
    the absorb fused into one pass.
    """

    __slots__ = ("dim", "out_dim", "max_pieces", "pieces", "failed", "count")

    def __init__(self, dim: int, out_dim: int, max_pieces: int = 6) -> None:
        self.dim = dim
        self.out_dim = out_dim
        self.max_pieces = max_pieces
        self.pieces: List[Tuple[FastVectorFitter, FastDomainFolder]] = []
        self.failed = False
        self.count = 0

    def add(self, point: Sequence[int], values: Sequence[int]) -> None:
        self.count += 1
        if self.failed:
            return
        for fitter, dom in self.pieces:
            if fitter.try_add(point, values):
                dom.add(point)
                return
        if len(self.pieces) >= self.max_pieces:
            self.failed = True
            self.pieces = []
            return
        fitter = FastVectorFitter(self.dim, self.out_dim)
        dom = FastDomainFolder(self.dim)
        fitter.add(point, values)
        dom.add(point)
        self.pieces.append((fitter, dom))

    def result(
        self, max_pieces: Optional[int] = None
    ) -> Optional[List[Tuple[ISet, AffineFunction, int]]]:
        if self.failed or self.count == 0:
            return None
        out = []
        budget = max_pieces if max_pieces is not None else self.max_pieces
        for fitter, dom in self.pieces:
            exprs = fitter.result()
            if exprs is None:
                return None
            domain, _exact = dom.fold(budget)
            out.append((domain, AffineFunction(exprs), dom.count))
        return out


class _FastStmtStream:
    """Per-statement stream state; the domain folder may be shared
    with every other statement of the same executed (block, context)
    group and is bound on the group's first batch.

    While ``aliased``, the domain of the stream's first label piece IS
    the (shared) stream domain: every point so far was labelled and
    accepted by piece 0, so the two folders would be identical anyway.
    The alias ends (with a clone snapshot) at the first unlabelled or
    rejected point."""

    __slots__ = ("domain", "labels", "label_arity", "aliased")

    def __init__(self) -> None:
        self.domain: Optional[FastDomainFolder] = None
        self.labels: Optional[FastPiecewiseVectorFolder] = None
        self.label_arity: Optional[int] = None
        self.aliased = False

    def dealias(self) -> None:
        """Give piece 0 its own domain snapshot (the stream domain is
        about to move ahead of it)."""
        labels = self.labels
        f0 = labels.pieces[0][0]
        labels.pieces[0] = (f0, self.domain.clone())
        self.aliased = False


class _FastDepStream:
    """Per-dependence stream state.

    While ``partial`` is None, every point so far was accepted by label
    piece 0, so the global per-component fitter and piece 0's fitter
    have identical state, as do the stream domain and piece 0's domain
    -- both are aliased and each point costs one domain insert plus one
    fused fitter pass.  The first rejected point clones both."""

    __slots__ = ("domain", "labels", "partial", "src_dim")

    def __init__(self, dst_dim: int, src_dim: int, max_pieces: int) -> None:
        self.domain = FastDomainFolder(dst_dim)
        self.labels = FastPiecewiseVectorFolder(dst_dim, src_dim, max_pieces)
        self.partial: Optional[FastVectorFitter] = None
        self.src_dim = src_dim

    def add(self, dst_coords, src_coords) -> None:
        labels = self.labels
        domain = self.domain
        partial = self.partial
        if partial is None:
            pieces = labels.pieces
            if not pieces:
                labels.count += 1
                fitter = FastVectorFitter(labels.dim, labels.out_dim)
                fitter.add(dst_coords, src_coords)
                pieces.append((fitter, domain))
                domain.add(dst_coords)
                return
            f0 = pieces[0][0]
            if f0.try_add(dst_coords, src_coords):
                labels.count += 1
                domain.add(dst_coords)
                return
            # diverged: snapshot piece 0 before absorbing the point
            # (try_add rejected without mutating, so f0 and the domain
            # hold exactly the pre-point state)
            pieces[0] = (f0, domain.clone())
            partial = f0.clone()
            self.partial = partial
        domain.add(dst_coords)
        labels.add(dst_coords, src_coords)
        partial.add(dst_coords, src_coords)

    def on_clamped(self) -> None:
        """Clamped stream: it will never absorb another point (the
        count only grows), so the aliases can be frozen in place."""
        if self.partial is None:
            pieces = self.labels.pieces
            if pieces:
                f0 = pieces[0][0]
                pieces[0] = (f0, self.domain.clone())
                self.partial = f0
            else:
                self.partial = FastVectorFitter(self.domain.dim, self.src_dim)
        self.domain.count += 1

    def partial_results(self) -> Optional[List[Optional[AffineExpr]]]:
        partial = self.partial
        if partial is None:
            pieces = self.labels.pieces
            if not pieces:
                return None
            partial = pieces[0][0]
        if partial.failed or not partial.count:
            return None
        out = partial.component_results()
        if all(e is None for e in out):
            return None
        return out


class FastFoldingSink(FoldingSink):
    """The folding sink of the fast engine.

    Extends :class:`FoldingSink` with the batched ``instr_points`` /
    ``dep_points`` entry points and swaps every per-point structure
    for its fast twin.  Produces bit-identical :class:`FoldedDDG`
    results; ``finalize`` is inherited.
    """

    def __init__(
        self, max_pieces: int = 6, clamp: Optional[int] = None
    ) -> None:
        super().__init__(max_pieces=max_pieces, clamp=clamp)
        #: statement-key tuple of one executed block -> shared domain
        #: folder (False marks a group that cannot share, e.g. after a
        #: partially-delivered faulting block)
        self._group_domains: Dict[Tuple[StmtKey, ...], object] = {}

    # -- declaration ------------------------------------------------------------

    def declare_statement(self, stmt: Statement) -> None:
        if stmt.key not in self.statements:
            self.statements[stmt.key] = stmt
            self._stmt_streams[stmt.key] = _FastStmtStream()

    # -- batched entry points ----------------------------------------------------

    def instr_points(self, coords, items) -> None:
        streams = self._stmt_streams
        gkey = tuple(k for k, _ in items)
        entry = self._group_domains.get(gkey)
        if entry is None:
            members = [streams[k] for k in gkey]
            first = members[0].domain
            if first is None and all(m.domain is None for m in members):
                dom = FastDomainFolder(len(coords))
                for m in members:
                    m.domain = dom
            elif first is not None and all(m.domain is first for m in members):
                # a prefix of an already-shared group (a faulting
                # block's partial delivery): fold into the same folder
                dom = first
            else:
                dom = False
            entry = (dom, members)
            self._group_domains[gkey] = entry
        dom, members = entry
        if dom is False:
            # mixed bindings (batched/unbatched interleaving): degrade
            # to per-point semantics, each distinct folder fed once
            self._mixed_instr_points(coords, items)
            return
        if self.clamp is not None and dom.count >= self.clamp:
            for s in members:
                if s.aliased:
                    s.dealias()
            self._clamped_stmts.update(gkey)
            dom.count += 1  # one unseen point per member statement
            self.clamped_points += len(items)
            return
        max_pieces = self.max_pieces
        dim = len(coords)
        first_block = dom.count == 0
        i = 0
        for key, label in items:
            s = members[i]
            i += 1
            if label:
                labels = s.labels
                if labels is None:
                    s.label_arity = len(label)
                    labels = FastPiecewiseVectorFolder(
                        dim, len(label), max_pieces
                    )
                    s.labels = labels
                    if first_block:
                        # every point of this stream so far (just this
                        # one) is labelled: alias piece 0's domain to
                        # the shared stream domain
                        s.aliased = True
                        labels.count = 1
                        fitter = FastVectorFitter(dim, len(label))
                        fitter.add(coords, label)
                        labels.pieces.append((fitter, dom))
                    else:
                        labels.add(coords, label)
                elif s.aliased:
                    if labels.pieces[0][0].try_add(coords, label):
                        labels.count += 1
                    else:
                        s.dealias()
                        labels.add(coords, label)
                else:
                    labels.add(coords, label)
            elif s.aliased:
                # unlabelled point: the shared domain moves ahead of
                # label piece 0, so the alias ends here
                s.dealias()
        # the shared insert happens after the member loop so dealias
        # snapshots see exactly the previous blocks' points
        dom.add(coords)

    def _mixed_instr_points(self, coords, items) -> None:
        """Per-point delivery for a batch whose member statements do
        not share one domain folder; a folder shared by *some* members
        still absorbs the block's coordinates exactly once."""
        streams = self._stmt_streams
        clamp = self.clamp
        max_pieces = self.max_pieces
        dim = len(coords)
        # end any aliases up front, while every folder still holds
        # exactly the previous points
        for key, _ in items:
            s = streams[key]
            if s.aliased:
                s.dealias()
        decisions: Dict[int, bool] = {}
        for key, label in items:
            s = streams[key]
            d = s.domain
            if d is None:
                d = FastDomainFolder(dim)
                s.domain = d
            did = id(d)
            clamped = decisions.get(did)
            if clamped is None:
                clamped = clamp is not None and d.count >= clamp
                if clamped:
                    d.count += 1
                else:
                    d.add(coords)
                decisions[did] = clamped
            if clamped:
                self._clamped_stmts.add(key)
                self.clamped_points += 1
                continue
            if label:
                labels = s.labels
                if labels is None:
                    s.label_arity = len(label)
                    labels = FastPiecewiseVectorFolder(
                        dim, len(label), max_pieces
                    )
                    s.labels = labels
                labels.add(coords, label)

    def dep_points(self, dst_coords, items) -> None:
        streams = self._dep_streams
        clamp = self.clamp
        max_pieces = self.max_pieces
        dst_dim = len(dst_coords)
        for dep, src_coords in items:
            d = streams.get(dep)
            if d is None:
                d = _FastDepStream(dst_dim, len(src_coords), max_pieces)
                streams[dep] = d
            if clamp is not None and d.domain.count >= clamp:
                self._clamped_deps.add(dep)
                d.on_clamped()
                self.clamped_points += 1
                continue
            d.add(dst_coords, src_coords)

    # -- unbatched entry points (fallback / mixed use) ---------------------------

    def instr_point(self, key, coords, label) -> None:
        s = self._stmt_streams[key]
        if s.aliased:
            s.dealias()
        if s.domain is None:
            s.domain = FastDomainFolder(len(coords))
        if self.clamp is not None and s.domain.count >= self.clamp:
            self._clamped_stmts.add(key)
            s.domain.count += 1
            self.clamped_points += 1
            return
        s.domain.add(coords)
        if label:
            if s.labels is None:
                s.label_arity = len(label)
                s.labels = FastPiecewiseVectorFolder(
                    len(coords), len(label), self.max_pieces
                )
            s.labels.add(coords, label)

    def dep_point(self, dep, dst_coords, src_coords) -> None:
        d = self._dep_streams.get(dep)
        if d is None:
            d = _FastDepStream(
                len(dst_coords), len(src_coords), self.max_pieces
            )
            self._dep_streams[dep] = d
        if self.clamp is not None and d.domain.count >= self.clamp:
            self._clamped_deps.add(dep)
            d.on_clamped()
            self.clamped_points += 1
            return
        d.add(dst_coords, src_coords)

    # -- finalization ------------------------------------------------------------

    def finalize(self, tracer=None):
        # a statement declared but never delivered a point has no
        # bound domain folder yet; give it an empty private one so the
        # inherited finalize sees the reference invariant
        for key, stream in self._stmt_streams.items():
            if stream.domain is None:
                stream.domain = FastDomainFolder(self.statements[key].depth)
        return super().finalize(tracer=tracer)
