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
  All live components therefore share one support list and one span,
  turning ``out_dim`` span tests per point into one.

* **Fused accept-and-add** (:meth:`FastVectorFitter.try_add`).  The
  reference piecewise folder calls ``would_accept`` and then ``add``,
  evaluating every component expression (and often the span test)
  twice per point.  ``try_add`` performs one evaluation pass and one
  span test, mutating only when the reference would have accepted.

* **Equality-form span** (:meth:`FastVectorFitter._in_span`).  The
  support span is kept as the integer equalities it satisfies, each a
  sparse normal with its right-hand side, instead of an echelon basis
  of difference vectors.  The first point pins every coordinate
  (``p[j] == origin[j]``); an appended out-of-span point costs one
  dual step (:func:`_dual_step`), which eliminates one violated
  equality from the others, so a rank-``r`` span keeps ``d - r``
  equalities and a full-rank span none.  Membership is then a few
  sparse dot products -- in practice a compare or two, since almost
  every equality is a unit one -- with no reduction and no list
  allocation.  It decides exactly what the reference's echelon
  reduction decides: both test ``p - origin`` against the same
  rational subspace.

* **Steady-state accept** (``FastVectorFitter._shift``).  A fitter
  whose label has the point's arity tracks the *support shift*: set
  while every support point satisfies ``value == point + shift``.
  Every exact fit interpolates the support, and two affine functions
  that agree on a set agree on its affine hull, so on the span each
  component's expression equals ``point + shift``.  An in-span point
  is therefore accepted iff one tuple compare holds -- nothing
  changes -- and otherwise rejected without mutation, exactly as the
  expression test would decide.  An appended point off the shift
  clears it for good, as does a failed component.

* **Inline steady checks** (:meth:`FastFoldingSink.instr_points`,
  :meth:`FastFoldingSink.dep_points`).  Streams whose every point so
  far was accepted by label piece 0 (``steady``) run the accept test
  in the sink loop, with no method call: dependences compare
  ``dst + shift`` with the producer coordinates (a ``src is dst``
  point just checks for a zero shift), scalar labels compare
  ``const + coeffs . p`` with ``label * den``, and a stream that
  tracks its group (below) skips the span test, which the group ran
  once for the execution.  A point that passes leaves the fitter
  unchanged (the reference would accept it and add nothing), so only
  the counts move; anything else falls through to ``try_add``.  The
  sink finds a dependence stream by the identity of its key object
  before falling back to the ``DepKey`` hash.

* **One multi-column refit** (:meth:`FastVectorFitter._refit`).  Every
  out-of-span mismatch refits all affected components with one
  :func:`~repro.poly.affine.fit_affine_many` call over the shared
  support -- one basis and one elimination, with canonical form and
  verification per component -- instead of one solve per component.
  The solver picks its basis from the point columns alone, so a
  column's fit does not depend on the columns beside it: a component
  whose column fails still fails alone, exactly as a separate solve
  would, and the tracking streams of a group share one call too.  The
  first point needs no solve: its canonical one-sample fit is the
  constant label.

* **Group-tracking streams** (:class:`_Group`, :class:`FastDomainFolder`,
  :class:`FastFoldingSink`).  All statements of one executed (block,
  context) receive exactly the same coordinate stream, so the sink
  keeps one group per (block, context) that owns their common domain
  folder and the span equalities of its coordinates.  A stream
  *tracks* its group while it has taken exactly one point from every
  execution since the group's first: a steady statement label fitter,
  or a dependence that fired exactly once per execution of its
  destination's group (paper section 5: a dependence domain is a
  subset of its destination statement's, and usually equal to it).
  Support growth is value-independent, so a tracking fitter's support
  and equalities are the group's.  Per block execution the group
  makes one domain insert and one span test; an in-span tracking
  stream accepts with a value compare (the shift, or each component's
  affine expression), a tracking dependence makes no insert of its
  own, and its domain and piece 0's are the group's folder.  On an
  out-of-span execution the group runs one dual step and hands every
  tracking fitter the same grown equalities, and their mismatching
  columns are refit with one ``fit_affine_many`` call when the
  execution lands.  The domain insert lands at the sink's next entry
  (the block's ``dep_points``, the next ``instr_points`` or
  ``finalize``), so a dependence that skipped the execution or fires
  twice in it snapshots the folder (:meth:`FastDomainFolder.clone`)
  before the point lands and goes on alone; a dependence whose labels
  diverge keeps tracking the domain.  Streams that start late, runs
  with a clamp, and dependence batches at other coordinates than the
  pending execution's keep per-stream state.  An insertion only walks
  the prefix tree (no per-point min/max: an inexact fold derives its
  bounding box from the tree), and a repeated prefix reuses the last
  leaf without walking it, so :meth:`FastDomainFolder.clone` copies
  the tree alone (and drops the leaf cache, which points into the
  original's tree).

* **One fold per distinct domain** (:meth:`FastFoldingSink.finalize`).
  Folders shared by a group fold once, and distinct folders often
  hold the same points -- most often two dependences into one block
  that both do not track its group, e.g. because both started after
  its first execution (a loop-carried dependence has no producer in
  the first iteration).  Finalize keys every domain folder by
  ``(dim, count == 0, row summary)``, all that
  :meth:`~repro.folding.domains.DomainFolder.fold_summary` reads,
  folds the first folder of each key and seeds the fold cache of the
  rest with the same result.
"""

from __future__ import annotations

from operator import add, itemgetter, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from ..ddg.graph import DepKey, Statement, StmtKey
from ..poly.affine import AffineExpr, AffineFunction, fit_affine_many
from ..poly.linalg import vec_gcd
from ..poly.pset import ISet
from .domains import DomainFolder
from .folder import FoldingSink

_first = itemgetter(0)

#: one span equality ``sum(coeffs[k] * p[idx[k]]) == rhs``, stored
#: sparse as ``(idx, coeffs, rhs)``
Equality = Tuple[Tuple[int, ...], Tuple[int, ...], int]


def _copy_tree(node: Dict) -> Dict:
    out = {}
    for k, v in node.items():
        if type(v) is dict:
            out[k] = _copy_tree(v)
        else:
            out[k] = v[:]  # leaf [min, max, count]
    return out


def _dual_step(eqs: List[Equality], point: Tuple[int, ...]) -> List[Equality]:
    """Equalities of the span grown by ``point``, which violates at
    least one of ``eqs``.

    With residuals ``r_k = n_k . point - rhs_k`` and a violated pivot
    equality ``k0``, the combinations ``r_k0 * n_k - r_k * n_k0``
    (``k != k0``) hold on the old span and at ``point``, and they are
    a basis of the grown span's equalities: one fewer than before.
    The sparsest violated equality is the pivot, so the common unit
    equalities ``p[j] == c`` stay short.
    """
    get = point.__getitem__
    res = [sum(map(mul, cs, map(get, idx))) - rhs for idx, cs, rhs in eqs]
    k0 = min(
        (k for k, r in enumerate(res) if r),
        key=lambda k: (len(eqs[k][0]), abs(res[k])),
    )
    idx0, cs0, rhs0 = eqs[k0]
    r0 = res[k0]
    out: List[Equality] = []
    for k, eq in enumerate(eqs):
        r = res[k]
        if k == k0:
            continue
        if not r:
            out.append(eq)
            continue
        idx, cs, rhs = eq
        row = {j: c * r0 for j, c in zip(idx, cs)}
        for j, c in zip(idx0, cs0):
            row[j] = row.get(j, 0) - r * c
        js = sorted(j for j, c in row.items() if c)
        ncs = [row[j] for j in js]
        nrhs = rhs * r0 - r * rhs0
        # every integer support point satisfies the row, so the gcd
        # of its coefficients divides its rhs
        g = vec_gcd(ncs)
        if g > 1:
            ncs = [c // g for c in ncs]
            nrhs //= g
        out.append((tuple(js), tuple(ncs), nrhs))
    return out


class FastDomainFolder(DomainFolder):
    """DomainFolder with a memoized :meth:`fold`, a last-prefix leaf
    cache and cheap cloning.

    Shared-group folders are folded once per member statement at
    finalize time; the cache makes every fold after the first free.
    Consecutive points mostly share their outer coordinates (an inner
    loop), so :meth:`add` keeps the leaf of the last prefix and skips
    the tree walk while the prefix repeats.  :meth:`clone` snapshots
    the folder for the alias-until-divergence sharing the sink does
    between a stream's domain and the domain of its first label piece.
    """

    __slots__ = ("_fold_cache", "_last_prefix", "_last_leaf")

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self._fold_cache: Optional[Tuple[int, Tuple[ISet, bool]]] = None
        self._last_prefix: Optional[Sequence[int]] = None
        self._last_leaf: Optional[List[int]] = None

    def add(self, coords: Sequence[int]) -> None:
        self._fold_cache = None
        if len(coords) != self.dim:
            raise ValueError("coordinate arity mismatch")
        self.count += 1
        if not self.dim:
            return
        last = coords[-1]
        prefix = coords[:-1]
        if prefix == self._last_prefix:
            leaf = self._last_leaf
        else:
            node = self._tree
            for c in prefix:
                nxt = node.get(c)
                if nxt is None:
                    nxt = {}
                    node[c] = nxt
                node = nxt
            leaf = node.get("__leaf__")
            if leaf is None:
                leaf = [last, last, 0]
                node["__leaf__"] = leaf
            self._last_prefix = prefix
            self._last_leaf = leaf
        if last < leaf[0]:
            leaf[0] = last
        elif last > leaf[1]:
            leaf[1] = last
        leaf[2] += 1

    def fold(self, max_pieces: int = 6) -> Tuple[ISet, bool]:
        cached = self._fold_cache
        if cached is not None and cached[0] == max_pieces:
            return cached[1]
        result = super().fold(max_pieces)
        self._fold_cache = (max_pieces, result)
        return result

    def clone(self) -> "FastDomainFolder":
        """Deep copy of the tree; the leaf cache points into the
        original's tree, so the clone starts without one."""
        c = FastDomainFolder.__new__(FastDomainFolder)
        c.dim = self.dim
        c.count = self.count
        c._tree = _copy_tree(self._tree)
        c._fold_cache = self._fold_cache
        c._last_prefix = None
        c._last_leaf = None
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

    The support span is kept in equality form: ``_eqs`` holds one
    ``(idx, coeffs, rhs)`` triple per integer equality
    ``sum(coeffs[k] * p[idx[k]]) == rhs`` the span satisfies (none
    once it is full rank).  ``_shift`` is the distance ``value -
    point`` while every support point shares one, else None.
    """

    __slots__ = (
        "dim", "out_dim", "count", "failed",
        "_support", "_values", "_origin", "_eqs", "_shift",
        "_exprs", "_coeffs", "_consts", "_dens", "_comp_failed", "_live",
    )

    def __init__(self, dim: int, out_dim: int) -> None:
        self.dim = dim
        self.out_dim = out_dim
        self.count = 0
        self.failed = False
        self._support: List[Tuple[int, ...]] = []
        self._values: List[List[int]] = [[] for _ in range(out_dim)]
        self._origin: Optional[Tuple[int, ...]] = None
        self._eqs: List[Equality] = []
        self._shift: Optional[Tuple[int, ...]] = None
        self._exprs: List[Optional[AffineExpr]] = [None] * out_dim
        self._coeffs: List = [None] * out_dim
        self._consts: List[int] = [0] * out_dim
        self._dens: List[int] = [1] * out_dim
        self._comp_failed: List[bool] = [False] * out_dim
        self._live = out_dim

    # -- shared span -----------------------------------------------------------

    def _in_span(self, point: Tuple[int, ...]) -> bool:
        if self._origin is None:
            return False
        get = point.__getitem__
        for idx, cs, rhs in self._eqs:
            if sum(map(mul, cs, map(get, idx))) != rhs:
                return False
        return True

    def _append(
        self,
        point: Tuple[int, ...],
        values: Sequence[int],
        eqs: Optional[List[Equality]] = None,
    ) -> None:
        """Grow the shared support (point is outside the span).  A
        caller that already knows the grown span's equalities passes
        them as ``eqs`` (support growth is value-independent)."""
        self._support.append(point)
        comp_failed = self._comp_failed
        vlists = self._values
        ints = [int(v) for v in values]
        for i in range(self.out_dim):
            if not comp_failed[i]:
                vlists[i].append(ints[i])
        if self._origin is None:
            self._origin = point
            self._eqs = [((j,), (1,), x) for j, x in enumerate(point)]
            if self.dim == self.out_dim:
                self._shift = tuple(map(sub, ints, point))
            return
        shift = self._shift
        if shift is not None and tuple(map(sub, ints, point)) != shift:
            self._shift = None
        self._eqs = _dual_step(self._eqs, point) if eqs is None else eqs

    # -- fitting ----------------------------------------------------------------

    def _start(self, point: Tuple[int, ...], values: Sequence[int]) -> None:
        """Absorb the first point.  Its canonical one-sample fit is the
        constant ``value`` per component (``fit_affine_many`` pins
        every coordinate to 0), built here without the solver."""
        self._append(point, values)
        zeros = (0,) * self.dim
        for i, v in enumerate(self._values):
            const = v[0]
            self._exprs[i] = AffineExpr.from_normalized(zeros, const, 1)
            self._coeffs[i] = zeros
            self._consts[i] = const

    def _refit(self, comps: Sequence[int]) -> None:
        """Refit components ``comps`` over the shared support with one
        multi-column solve."""
        vlists = self._values
        self._set_fits(
            comps, fit_affine_many(self._support, [vlists[i] for i in comps])
        )

    def _set_fits(
        self, comps: Sequence[int], exprs: Sequence[Optional[AffineExpr]]
    ) -> None:
        """Install the refit ``exprs`` of components ``comps``."""
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
        self._shift = None
        self._live -= 1

    def _mismatches(self, point, values) -> Optional[List[int]]:
        """Live components whose expression misses ``values``."""
        coeffs = self._coeffs
        consts = self._consts
        dens = self._dens
        mismatch: Optional[List[int]] = None
        for i, c in enumerate(coeffs):
            if c is None:
                continue
            if consts[i] + sum(map(mul, c, point)) != int(values[i]) * dens[i]:
                if mismatch is None:
                    mismatch = [i]
                else:
                    mismatch.append(i)
        return mismatch

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
            self._start(point, values)
            return True
        if self._live != self.out_dim:
            # a dead component rejects everything (reference
            # would_accept semantics)
            return False
        in_span = self._in_span(point)
        shift = self._shift
        if in_span and shift is not None:
            # on the support's affine hull every fit is point + shift
            if tuple(map(sub, values, point)) != shift:
                return False
            self.count += 1
            return True
        mismatch = self._mismatches(point, values)
        if mismatch is None:
            self.count += 1
            if not in_span:
                self._append(point, values)
            return True
        if in_span:
            return False
        self.count += 1
        self._append(point, values)
        self._refit(mismatch)
        return True

    def _track_out(
        self,
        point: Tuple[int, ...],
        values: Sequence[int],
        eqs: List[Equality],
        refits: List,
    ) -> bool:
        """:meth:`try_add` of a point outside the span, for a fitter
        that tracks a group: ``eqs`` are the grown span's equalities,
        which the group computed once, and a mismatch is queued on
        ``refits`` as ``(fitter, components)`` for the group's batched
        solve instead of being refit here."""
        if (
            self.failed
            or self._live != self.out_dim
            or len(values) != self.out_dim
        ):
            return False
        mismatch = self._mismatches(point, values)
        self.count += 1
        self._append(point, values, eqs)
        if mismatch is not None:
            refits.append((self, mismatch))
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
            self._start(point, values)
            return
        in_span = self._in_span(point)
        shift = self._shift
        if (
            in_span
            and shift is not None
            and tuple(map(sub, values, point)) == shift
        ):
            return
        mismatch = self._mismatches(point, values)
        if mismatch is None:
            if not in_span:
                self._append(point, values)
            return
        if in_span:
            for i in mismatch:
                self._comp_fail(i)
            return
        self._append(point, values)
        self._refit(mismatch)

    def clone(self) -> "FastVectorFitter":
        """Snapshot for alias-until-divergence sharing.  Support point
        tuples and equalities are immutable, so only the containers
        are copied."""
        c = FastVectorFitter.__new__(FastVectorFitter)
        c.dim = self.dim
        c.out_dim = self.out_dim
        c.count = self.count
        c.failed = self.failed
        c._support = self._support[:]
        c._values = [v[:] for v in self._values]
        c._origin = self._origin
        c._eqs = self._eqs
        c._shift = self._shift
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
    group (:class:`_Group`) and is bound on the group's first batch.

    While ``steady`` is set (to piece 0's fitter), the domain of the
    stream's first label piece IS the (shared) stream domain: every
    point so far was labelled and accepted by piece 0, so the two
    folders would be identical anyway, and the stream tracks its
    group.  The alias ends (with a clone snapshot) at the first
    unlabelled or rejected point."""

    __slots__ = ("domain", "labels", "label_arity", "steady")

    def __init__(self) -> None:
        self.domain: Optional[FastDomainFolder] = None
        self.labels: Optional[FastPiecewiseVectorFolder] = None
        self.label_arity: Optional[int] = None
        self.steady: Optional[FastVectorFitter] = None

    def dealias(self) -> None:
        """Give piece 0 its own domain snapshot (the stream domain is
        about to move ahead of it)."""
        self.labels.pieces[0] = (self.steady, self.domain.clone())
        self.steady = None


class _FastDepStream:
    """Per-dependence stream state.

    While ``partial`` is None, every point so far was accepted by label
    piece 0, so the global per-component fitter and piece 0's fitter
    have identical state, as do the stream domain and piece 0's domain
    -- both are aliased (``steady`` is that shared fitter) and each
    point costs one domain insert plus one fused fitter pass.  The
    first rejected point clones both.

    While ``group`` is set, the stream tracks its destination's
    :class:`_Group`: it has fired exactly once in every execution of
    the group since the group's first, so its domain IS the group's
    folder, and while it is also steady its fitter's span is the
    group's.  ``seen`` is the index of the group execution it last
    fired in."""

    __slots__ = ("domain", "labels", "partial", "steady", "src_dim",
                 "group", "seen")

    def __init__(self, dst_dim: int, src_dim: int, max_pieces: int) -> None:
        self.domain = FastDomainFolder(dst_dim)
        self.labels = FastPiecewiseVectorFolder(dst_dim, src_dim, max_pieces)
        self.partial: Optional[FastVectorFitter] = None
        self.steady: Optional[FastVectorFitter] = None
        self.src_dim = src_dim
        self.group: Optional[_Group] = None
        self.seen = -1

    def add(self, dst_coords, src_coords) -> None:
        """Absorb one point; a stream that tracks its group leaves the
        domain insert to the group."""
        labels = self.labels
        partial = self.partial
        if partial is None:
            f0 = self.steady
            if f0 is None:
                labels.count += 1
                f0 = FastVectorFitter(labels.dim, labels.out_dim)
                f0.add(dst_coords, src_coords)
                labels.pieces.append((f0, self.domain))
                self.steady = f0
            elif f0.try_add(dst_coords, src_coords):
                labels.count += 1
            else:
                # diverged: snapshot piece 0 before absorbing the point
                # (try_add rejected without mutating, so f0 and the
                # domain hold exactly the pre-point state)
                labels.pieces[0] = (f0, self.domain.clone())
                partial = f0.clone()
                self.partial = partial
                self.steady = None
        if partial is not None:
            labels.add(dst_coords, src_coords)
            partial.add(dst_coords, src_coords)
        if self.group is None:
            self.domain.add(dst_coords)

    def on_clamped(self) -> None:
        """Clamped stream: it will never absorb another point (the
        count only grows), so the aliases can be frozen in place."""
        if self.partial is None:
            f0 = self.steady
            if f0 is not None:
                self.labels.pieces[0] = (f0, self.domain.clone())
                self.partial = f0
                self.steady = None
            else:
                self.partial = FastVectorFitter(self.domain.dim, self.src_dim)
        self.domain.count += 1

    def partial_results(self) -> Optional[List[Optional[AffineExpr]]]:
        partial = self.partial
        if partial is None:
            partial = self.steady
            if partial is None:
                return None
        if partial.failed or not partial.count:
            return None
        out = partial.component_results()
        if all(e is None for e in out):
            return None
        return out


class _Group:
    """The statements of one executed (block, context): they receive
    exactly the same coordinate stream, so they share one domain folder
    (``dom``) and one support span (``eqs``, the equalities of every
    coordinate the group has executed at; None once nothing tracks
    the group).

    A stream *tracks* the group while it has taken exactly one point
    from every execution since the group's first: the steady label
    fitters of ``members``, and the dependences keyed in ``deps``
    (keys, not streams: a dependence stream points at its group, and
    the structure stays free of reference cycles).  Support growth is
    value-independent, so every tracking fitter's span is the
    group's; the sink tests the span once per execution and the
    trackers compare values only.

    An execution stays pending (``coords``, ``in_span``) from its
    ``instr_points`` until the sink's next entry, which lands the
    domain insert (:meth:`FastFoldingSink._flush`): a tracking
    dependence that skipped it, or fires twice in it, snapshots the
    folder before the point lands.  ``fired`` counts the tracking
    dependences that fired in the pending execution; ``tracked`` the
    members that still tracked after their point of it; ``refits``
    queues its ``(fitter, components)`` mismatch refits for one
    batched solve."""

    __slots__ = ("dom", "members", "eqs", "coords", "in_span", "deps",
                 "fired", "tracked", "refits")

    def __init__(self, dom: FastDomainFolder, members: List) -> None:
        self.dom = dom
        self.members = members
        self.eqs: Optional[List[Equality]] = None
        self.coords: Optional[Tuple[int, ...]] = None
        self.in_span = False
        self.deps: List[DepKey] = []
        self.fired = 0
        self.tracked = 0
        self.refits: List = []


def _settle(refits: List) -> None:
    """Run a group execution's queued refits with one
    :func:`~repro.poly.affine.fit_affine_many` call.  Every queued
    fitter's support is the group's, and the solver picks its basis
    from the point columns alone, so each column gets exactly the
    result of a separate solve."""
    cols = [f._values[i] for f, comps in refits for i in comps]
    exprs = fit_affine_many(refits[0][0]._support, cols)
    k = 0
    for f, comps in refits:
        n = len(comps)
        f._set_fits(comps, exprs[k:k + n])
        k += n
    refits.clear()


class FastFoldingSink(FoldingSink):
    """The folding sink of the fast engine.

    Extends :class:`FoldingSink` with the batched builder's protocol
    and swaps every per-point structure for its fast twin.  Per
    executed block the sink takes one ``instr_points`` call, for every
    statement of the block, then optionally one ``dep_points`` call;
    the per-point ``instr_point``/``dep_point`` entries raise
    :class:`TypeError`.  A batch that is a prefix of a bound group is
    dropped: only a faulting block delivers one, and the execution
    ends with its error.  Produces bit-identical :class:`FoldedDDG`
    results; ``finalize`` folds each distinct domain once, then runs
    the inherited pass over the cached folds.
    """

    def __init__(
        self, max_pieces: int = 6, clamp: Optional[int] = None
    ) -> None:
        super().__init__(max_pieces=max_pieces, clamp=clamp)
        #: statement-key tuple of one executed block -> its group
        self._groups: Dict[Tuple[StmtKey, ...], _Group] = {}
        #: statement key -> the group it is a member of
        self._stmt_groups: Dict[StmtKey, _Group] = {}
        #: the group whose execution's domain insert is pending
        self._pending: Optional[_Group] = None
        #: id of the key object a dependence stream was created with ->
        #: that stream.  ``_dep_streams`` keeps the key alive, so a live
        #: object with that id is that key.  The builder reuses its key
        #: objects, and this lookup skips the dataclass ``__hash__``;
        #: an equal but distinct key takes the ``_dep_streams`` path.
        self._dep_ids: Dict[int, _FastDepStream] = {}

    # -- declaration ------------------------------------------------------------

    def declare_statement(self, stmt: Statement) -> None:
        if stmt.key not in self.statements:
            self.statements[stmt.key] = stmt
            self._stmt_streams[stmt.key] = _FastStmtStream()

    # -- group tracking ------------------------------------------------------------

    def _flush(self) -> None:
        """Land the pending execution's domain insert, after its
        queued refits and after every tracking dependence that
        skipped it has stopped tracking."""
        g = self._pending
        self._pending = None
        if g.refits:
            _settle(g.refits)
        deps = g.deps
        if g.fired != len(deps):
            n = g.dom.count
            streams = self._dep_streams
            for dep in [k for k in deps if streams[k].seen != n]:
                self._untrack(streams[dep], dep)
        g.fired = 0
        g.dom.add(g.coords)

    def _untrack(self, d: _FastDepStream, dep: DepKey) -> None:
        """End ``d``'s tracking: it gets its own snapshot of the group
        folder, holding exactly its points so far, and continues on
        the per-stream path."""
        g = d.group
        dom = g.dom.clone()
        if g is self._pending and d.seen == dom.count:
            # fired in the pending execution, whose insert has not
            # landed yet
            if g.refits:
                _settle(g.refits)
            dom.add(g.coords)
            g.fired -= 1
        g.deps.remove(dep)
        d.group = None
        d.domain = dom
        if d.steady is not None:
            d.labels.pieces[0] = (d.steady, dom)

    # -- batched entry points ----------------------------------------------------

    def instr_points(self, coords, items) -> None:
        if self._pending is not None:
            self._flush()
        streams = self._stmt_streams
        gkey = tuple(map(_first, items))
        g = self._groups.get(gkey)
        if g is None:
            members = [streams[k] for k in gkey]
            if members[0].domain is not None:
                # a prefix of a bound group: only a faulting block
                # delivers one, and the VM re-raises right after it,
                # so nothing reads this sink again
                return
            g = _Group(FastDomainFolder(len(coords)), members)
            for m in members:
                m.domain = g.dom
            for k in gkey:
                self._stmt_groups[k] = g
            self._groups[gkey] = g
        dom = g.dom
        members = g.members
        if self.clamp is not None and dom.count >= self.clamp:
            for s in members:
                if s.steady is not None:
                    s.dealias()
            self._clamped_stmts.update(gkey)
            dom.count += 1  # one unseen point per member statement
            self.clamped_points += len(items)
            return
        max_pieces = self.max_pieces
        dim = len(coords)
        first_block = dom.count == 0
        eqs = g.eqs
        in_span = False
        if first_block:
            eqs = g.eqs = [((j,), (1,), x) for j, x in enumerate(coords)]
        elif eqs is not None:
            if not g.tracked and not g.deps:
                # nothing tracks the group, and nothing can start to
                eqs = g.eqs = None
            else:
                get = coords.__getitem__
                for idx, cs, rhs in eqs:
                    if sum(map(mul, cs, map(get, idx))) != rhs:
                        eqs = g.eqs = _dual_step(eqs, coords)
                        break
                else:
                    in_span = True
        g.coords = coords
        g.in_span = in_span
        self._pending = g
        refits = g.refits
        tracked = 0
        i = 0
        for key, label in items:
            s = members[i]
            i += 1
            if label:
                labels = s.labels
                f0 = s.steady
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
                        labels.count = 1
                        f0 = FastVectorFitter(dim, len(label))
                        f0.add(coords, label)
                        f0._eqs = eqs
                        labels.pieces.append((f0, dom))
                        s.steady = f0
                        tracked += 1
                    else:
                        labels.add(coords, label)
                elif f0 is None:
                    labels.add(coords, label)
                elif in_span:
                    # steady state, inline: a live scalar fit that
                    # matches at an in-span point accepts with no
                    # change (piece fitters never set ``failed``)
                    c0 = f0._coeffs[0]
                    if (
                        c0 is not None
                        and len(label) == 1 == f0.out_dim
                        and f0._consts[0] + sum(map(mul, c0, coords))
                        == label[0] * f0._dens[0]
                    ):
                        f0.count += 1
                        labels.count += 1
                        tracked += 1
                    elif f0.try_add(coords, label):
                        labels.count += 1
                        tracked += 1
                    else:
                        s.dealias()
                        labels.add(coords, label)
                elif f0._track_out(coords, label, eqs, refits):
                    labels.count += 1
                    tracked += 1
                else:
                    s.dealias()
                    labels.add(coords, label)
            elif s.steady is not None:
                # unlabelled point: the shared domain moves ahead of
                # label piece 0, so the alias ends here
                s.dealias()
        g.tracked = tracked

    def dep_points(self, dst_coords, items) -> None:
        streams = self._dep_streams
        clamp = self.clamp
        max_pieces = self.max_pieces
        dst_dim = len(dst_coords)
        get = dst_coords.__getitem__
        # the shift at which a fit accepts a ``src is dst`` point
        zeros = (0,) * dst_dim
        by_id = self._dep_ids
        g = self._pending
        if g is not None and dst_coords is not g.coords:
            if dst_coords != g.coords:
                g = None  # not a batch of the pending execution
        n = in_span = None
        if g is not None:
            n = g.dom.count
            in_span = g.in_span
        for dep, src_coords in items:
            d = by_id.get(id(dep))
            if d is None:
                d = streams.get(dep)
                if d is None:
                    d = _FastDepStream(dst_dim, len(src_coords), max_pieces)
                    streams[dep] = d
                    by_id[id(dep)] = d
                    if (
                        g is not None
                        and not n
                        and clamp is None
                        and self._stmt_groups.get(dep.dst) is g
                    ):
                        # fires in the group's first execution: track
                        # it, on the group's folder
                        f0 = FastVectorFitter(dst_dim, len(src_coords))
                        f0.add(dst_coords, src_coords)
                        f0._eqs = g.eqs
                        d.labels.count = 1
                        d.labels.pieces.append((f0, g.dom))
                        d.steady = f0
                        d.domain = g.dom
                        d.group = g
                        d.seen = 0
                        g.deps.append(dep)
                        g.fired += 1
                        continue
            dg = d.group
            if dg is not None:
                if dg is g and d.seen != n:
                    d.seen = n
                    g.fired += 1
                    f0 = d.steady
                    if f0 is not None:
                        if in_span:
                            # value compare only: the span test was the
                            # group's
                            shift = f0._shift
                            if shift is not None:
                                if src_coords is dst_coords:
                                    ok = shift == zeros
                                else:
                                    ok = (
                                        tuple(map(add, dst_coords, shift))
                                        == src_coords
                                    )
                            else:
                                ok = len(src_coords) == f0.out_dim
                                if ok:
                                    for c, k, den, v in zip(
                                        f0._coeffs, f0._consts, f0._dens,
                                        src_coords,
                                    ):
                                        if (
                                            c is None
                                            or k + sum(map(mul, c, dst_coords))
                                            != v * den
                                        ):
                                            ok = False
                                            break
                            if ok:
                                f0.count += 1
                                d.labels.count += 1
                                continue
                        elif f0._track_out(dst_coords, src_coords, g.eqs, g.refits):
                            d.labels.count += 1
                            continue
                    # the labels diverged, now or before: they go on
                    # per stream, and the domain insert stays the
                    # group's
                    d.add(dst_coords, src_coords)
                    continue
                self._untrack(d, dep)
            if clamp is not None and d.domain.count >= clamp:
                self._clamped_deps.add(dep)
                d.on_clamped()
                self.clamped_points += 1
                continue
            f0 = d.steady
            if f0 is not None:
                # steady state, inline: an in-span point at the
                # support's shift accepts with no change
                shift = f0._shift
                if shift is not None and (
                    shift == zeros
                    if src_coords is dst_coords
                    else tuple(map(add, dst_coords, shift)) == src_coords
                ):
                    for idx, cs, rhs in f0._eqs:
                        if sum(map(mul, cs, map(get, idx))) != rhs:
                            break
                    else:
                        f0.count += 1
                        d.labels.count += 1
                        d.domain.add(dst_coords)
                        continue
            d.add(dst_coords, src_coords)
        if self._pending is not None:
            self._flush()

    def instr_point(self, *_point) -> None:
        raise TypeError(
            "FastFoldingSink takes whole-block batches: instr_points, "
            "then dep_points"
        )

    dep_point = instr_point

    # -- finalization ------------------------------------------------------------

    def finalize(self, tracer=None):
        from ..obs import NULL_TRACER

        tracer = tracer if tracer is not None else NULL_TRACER
        if self._pending is not None:
            self._flush()
        # a statement declared but never delivered a point has no
        # bound domain folder yet; give it an empty private one so the
        # inherited finalize sees the reference invariant
        for key, stream in self._stmt_streams.items():
            if stream.domain is None:
                stream.domain = FastDomainFolder(self.statements[key].depth)
        with tracer.span("fold.domains", cat="fold") as sp:
            folds, reused = self._fold_domains()
        sp.count("folds", folds)
        sp.count("reused", reused)
        sp.count(
            "aliased",
            sum(1 for d in self._dep_streams.values() if d.group is not None),
        )
        return super().finalize(tracer=tracer)

    def _domain_folders(self):
        """Every domain folder the inherited finalize folds: statement
        and dependence domains and the domain of each label piece (a
        clamped dependence drops its labels unfolded)."""
        for stream in self._stmt_streams.values():
            yield stream.domain
            if stream.labels is not None:
                for _, dom in stream.labels.pieces:
                    yield dom
        clamped = self._clamped_deps
        for dep, stream in self._dep_streams.items():
            yield stream.domain
            if dep not in clamped:
                for _, dom in stream.labels.pieces:
                    yield dom

    def _fold_domains(self) -> Tuple[int, int]:
        """Fold each distinct domain once and hand the result to every
        folder with the same ``(dim, count == 0, row summary)`` -- all
        that ``fold_summary`` reads -- through its fold cache; returns
        ``(folds, reused)``.  Results are shared, not copied: ISet
        pieces and polyhedron rows are immutable tuples."""
        max_pieces = self.max_pieces
        memo: Dict[tuple, Tuple[ISet, bool]] = {}
        reused = 0
        for folder in self._domain_folders():
            if folder._fold_cache is not None:
                continue  # one folder reached twice (a shared group)
            rows = folder.row_summary()
            key = (folder.dim, folder.count == 0, rows)
            result = memo.get(key)
            if result is None:
                result = folder.fold_summary(rows, max_pieces)
                memo[key] = result
            else:
                reused += 1
            folder._fold_cache = (max_pieces, result)
        return len(memo), reused
