"""The folding sink: compact polyhedral DDG construction (paper §5).

Implements :class:`~repro.ddg.graph.DDGSink` by folding each statement
and dependence stream on the fly:

* statement streams fold into an iteration-domain
  :class:`~repro.poly.pset.ISet` plus (when it exists) an exact affine
  *label function* -- the access function of a memory instruction or
  the scalar-evolution expression of an integer instruction;
* dependence streams fold into an :class:`~repro.poly.pmap.IMap` from
  consumer coordinates to producer coordinates (the shape of the
  paper's Table 2).

After :meth:`finalize`, the :class:`FoldedDDG` additionally runs SCEV
recognition (paper §5, "SCEV recognition"): integer-arithmetic
statements whose value label folded to an affine function of their
iterators are induction/address computations; they and every
dependence touching them are dropped from the transformation-relevant
view, since such chains would otherwise serialize every loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ddg.graph import DDGSink, DepKey, Statement, StmtKey
from ..poly.affine import AffineExpr, AffineFunction
from ..poly.pmap import IMap
from ..poly.pset import ISet, Space
from .domains import DomainFolder
from .fitter import VectorAffineFitter
from .piecewise import PiecewiseVectorFolder

#: opcodes whose folded-affine values make them SCEV (removable
#: induction-variable / address arithmetic); loads are never SCEVs --
#: they are accesses to be reported, even when their values happen to
#: be affine.
SCEV_OPCODES = frozenset(
    "add sub mul div mod and or xor shl shr const mov "
    "cmplt cmple cmpgt cmpge cmpeq cmpne ftoi".split()
)


@dataclass
class FoldedStatement:
    """One statement of the compact polyhedral DDG."""

    stmt: Statement
    domain: ISet
    count: int
    exact: bool
    #: piecewise label function: (domain, function, point count) per
    #: piece; None when the stream carried no labels or failed to fold
    label_pieces: Optional[List[Tuple[ISet, AffineFunction, int]]]
    #: the stream carried labels (an address or integer value); when
    #: True and label_pieces is None, the labels exceeded the piece
    #: budget (non-affine)
    had_label: bool = False
    is_scev: bool = False

    @property
    def label_fn(self) -> Optional[AffineFunction]:
        """The dominant (most-points) label piece's function, or the
        single function when there is exactly one piece.  Stride and
        cost analyses use this; exact multi-piece reasoning uses
        ``label_pieces`` directly."""
        if not self.label_pieces:
            return None
        return max(self.label_pieces, key=lambda t: t[2])[1]

    @property
    def label_affine(self) -> bool:
        return self.label_pieces is not None

    @property
    def key(self) -> StmtKey:
        return self.stmt.key

    @property
    def depth(self) -> int:
        return self.stmt.depth

    def iterators(self) -> Tuple[str, ...]:
        return self.domain.space.names


@dataclass
class FoldedDep:
    """One dependence relation of the compact polyhedral DDG."""

    key: DepKey
    count: int
    domain: ISet                      # over consumer coordinates
    domain_exact: bool
    relation: Optional[IMap]          # consumer -> producer, if affine
    #: per producer coordinate, the exact affine expression when that
    #: *component* folded globally even though the full vector did not
    #: (None entries are unknown); always available when relation is
    partial_src: Optional[List[Optional[AffineExpr]]]
    src_depth: int
    dst_depth: int

    @property
    def exact(self) -> bool:
        return self.relation is not None and self.domain_exact


class _StmtStream:
    __slots__ = ("domain", "labels", "label_arity")

    def __init__(self, dim: int) -> None:
        self.domain = DomainFolder(dim)
        self.labels: Optional[PiecewiseVectorFolder] = None
        self.label_arity: Optional[int] = None


class _DepStream:
    __slots__ = ("domain", "labels", "partial", "src_dim")

    def __init__(self, dst_dim: int, src_dim: int, max_pieces: int) -> None:
        self.domain = DomainFolder(dst_dim)
        self.labels = PiecewiseVectorFolder(dst_dim, src_dim, max_pieces)
        # per-component global fitters: even when the full producer
        # vector is not (piecewise-)affine, individual components often
        # are -- e.g. a data-dependent gather whose *time* coordinate
        # is exactly "previous iteration" (bfs levels).  The paper fits
        # each label component to its own affine function, so partial
        # information is first-class.
        self.partial = VectorAffineFitter(dst_dim, src_dim)
        self.src_dim = src_dim

    def partial_results(self) -> Optional[List[Optional[AffineExpr]]]:
        """Per-component affine expressions of the global fit (None
        entries did not fold); None when nothing folded at all."""
        if self.partial.failed or not self.partial.count:
            return None
        out = [f.result() for f in self.partial.fitters]
        if all(e is None for e in out):
            return None
        return out


class FoldingSink(DDGSink):
    """Streaming folder; call :meth:`finalize` after the run.

    ``clamp`` implements the paper's Fig. 1 "relevance scalability
    clamping" knob: once a stream has absorbed that many points, the
    folder stops updating it and the result is flagged inexact
    (over-approximated by what was seen plus its bounding structure).
    This bounds the cost of profiling pathological streams; ``None``
    (the default) disables it.
    """

    def __init__(
        self, max_pieces: int = 6, clamp: Optional[int] = None
    ) -> None:
        self.max_pieces = max_pieces
        self.clamp = clamp
        self.statements: Dict[StmtKey, Statement] = {}
        self._stmt_streams: Dict[StmtKey, _StmtStream] = {}
        self._dep_streams: Dict[DepKey, _DepStream] = {}
        self._clamped_stmts: Set[StmtKey] = set()
        self._clamped_deps: Set[DepKey] = set()
        self.clamped_points = 0

    # -- DDGSink interface --------------------------------------------------------

    def declare_statement(self, stmt: Statement) -> None:
        if stmt.key not in self.statements:
            self.statements[stmt.key] = stmt
            self._stmt_streams[stmt.key] = _StmtStream(stmt.depth)

    def instr_point(self, key, coords, label):
        s = self._stmt_streams[key]
        if self.clamp is not None and s.domain.count >= self.clamp:
            self._clamped_stmts.add(key)
            s.domain.count += 1  # keep the dynamic tally honest
            self.clamped_points += 1
            return
        s.domain.add(coords)
        if label:
            if s.labels is None:
                s.label_arity = len(label)
                s.labels = PiecewiseVectorFolder(
                    len(coords), len(label), self.max_pieces
                )
            s.labels.add(coords, label)

    def dep_point(self, dep, dst_coords, src_coords):
        d = self._dep_streams.get(dep)
        if d is None:
            d = _DepStream(len(dst_coords), len(src_coords), self.max_pieces)
            self._dep_streams[dep] = d
        if self.clamp is not None and d.domain.count >= self.clamp:
            self._clamped_deps.add(dep)
            d.domain.count += 1
            self.clamped_points += 1
            return
        d.domain.add(dst_coords)
        d.labels.add(dst_coords, src_coords)
        d.partial.add(dst_coords, src_coords)

    # -- finalization ----------------------------------------------------------------

    def finalize(self, tracer=None) -> "FoldedDDG":
        """Fold every accumulated stream into the compact DDG.

        ``tracer`` (a :class:`repro.obs.Tracer`) gets one span per
        folding pass -- statement domains, dependence relations, SCEV
        recognition -- so a traced analysis can see which pass eats
        the stage-2 tail; ``None`` is a free no-op."""
        from ..obs import NULL_TRACER

        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("fold.statements", cat="fold") as sp_stmts:
            stmts = self._finalize_statements()
        sp_stmts.count("statements", len(stmts))
        with tracer.span("fold.deps", cat="fold") as sp_deps:
            deps = self._finalize_deps()
        sp_deps.count("deps", len(deps))
        ddg = canonical_ddg(stmts, deps)
        with tracer.span("fold.scev", cat="fold"):
            ddg.run_scev_recognition()
        return ddg

    def _finalize_statements(self) -> Dict[StmtKey, "FoldedStatement"]:
        stmts: Dict[StmtKey, FoldedStatement] = {}
        for key, stream in self._stmt_streams.items():
            stmt = self.statements[key]
            domain, exact = stream.domain.fold(self.max_pieces)
            if key in self._clamped_stmts:
                exact = False  # unseen points: only an approximation
            label_pieces = (
                stream.labels.result() if stream.labels is not None else None
            )
            stmts[key] = FoldedStatement(
                stmt=stmt,
                domain=domain,
                count=stream.domain.count,
                exact=exact,
                label_pieces=label_pieces,
                had_label=stream.labels is not None,
            )
        return stmts

    def _finalize_deps(self) -> Dict[DepKey, "FoldedDep"]:
        deps: Dict[DepKey, FoldedDep] = {}
        for dep, stream in self._dep_streams.items():
            domain, dexact = stream.domain.fold(self.max_pieces)
            if dep in self._clamped_deps:
                # unseen dependence points: dropping the relation keeps
                # every downstream legality question conservative ('*')
                dexact = False
                stream.labels.failed = True
                stream.partial.failed = True
            pieces = stream.labels.result()
            partial = stream.partial_results()
            relation = None
            if pieces is not None:
                out_space = Space([f"p{i}" for i in range(stream.src_dim)])
                map_pieces = []
                for piece_dom, fn, _cnt in pieces:
                    for poly in piece_dom.pieces:
                        map_pieces.append((poly, fn))
                relation = IMap(domain.space, out_space, map_pieces)
            deps[dep] = FoldedDep(
                key=dep,
                count=stream.domain.count,
                domain=domain,
                domain_exact=dexact,
                relation=relation,
                partial_src=partial,
                src_depth=stream.src_dim,
                dst_depth=stream.domain.dim,
            )
        return deps


def dep_sort_key(dep: DepKey):
    """Canonical ordering of dependence keys: (src, dst, kind)."""
    return (dep.src, dep.dst, dep.kind)


def canonical_ddg(
    statements: Dict[StmtKey, "FoldedStatement"],
    deps: Dict[DepKey, "FoldedDep"],
) -> "FoldedDDG":
    """Rebuild the DDG dicts in canonical order: statements by
    ``(uid, ctx)`` key, dependences by ``(src, dst, kind)``.

    The codec serializes dicts in insertion order, so every path that
    materializes a :class:`FoldedDDG` -- the fold and the stage-2
    region decode -- normalizes here.  That makes the
    artifact bytes a function of the folded *set*, independent of the
    first-occurrence order of streams, which is exactly what lets a
    decode (which rebuilds the DDG function by function) reproduce a
    cold run byte-for-byte.
    """
    return FoldedDDG(
        statements={k: statements[k] for k in sorted(statements)},
        deps={k: deps[k] for k in sorted(deps, key=dep_sort_key)},
    )


@dataclass
class FoldedDDG:
    """The compact polyhedral DDG."""

    statements: Dict[StmtKey, FoldedStatement]
    deps: Dict[DepKey, FoldedDep]

    # -- SCEV recognition ------------------------------------------------------------

    def run_scev_recognition(self) -> None:
        # single-piece affine values only: a scalar evolution is one
        # affine function of the canonical induction variables
        for fs in self.statements.values():
            if (
                fs.stmt.instr.opcode in SCEV_OPCODES
                and fs.label_pieces is not None
                and len(fs.label_pieces) == 1
            ):
                fs.is_scev = True

    def scev_statements(self) -> Set[StmtKey]:
        return {k for k, fs in self.statements.items() if fs.is_scev}

    # -- views -----------------------------------------------------------------------

    def transform_deps(self) -> Iterable[FoldedDep]:
        """Dependences relevant for rescheduling: everything except
        edges into/out of SCEV statements (their chains are recomputed
        by any reasonable code generator and must not constrain the
        schedule)."""
        scev = self.scev_statements()
        for dep in self.deps.values():
            if dep.key.src in scev or dep.key.dst in scev:
                continue
            yield dep

    def stmt_count(self) -> int:
        return len(self.statements)

    def dyn_ops(self) -> int:
        return sum(fs.count for fs in self.statements.values())

    def stmt_is_affine(self, key: StmtKey, bad_deps: Set[StmtKey]) -> bool:
        """Is one statement fully affine: exact domain, exact incident
        dependences, and (when it carries a label -- an address or an
        integer value) an exactly folded affine label?"""
        fs = self.statements[key]
        if fs.is_scev:
            return True
        if not fs.exact or key in bad_deps:
            return False
        if fs.had_label and not fs.label_affine:
            # an access or integer value stream that exceeded the
            # piecewise-affine budget (e.g. data-dependent addresses)
            return False
        return True

    def affine_ops(self) -> int:
        """Dynamic operations inside fully affine *nests* -- the
        paper's %Aff numerator.

        Affineness is contagious at the innermost-nest granularity: a
        single modulo-linearized access or data-dependent domain makes
        its whole nest non-affine (the paper's heartwall/hotspot/lud
        observation that hand-linearized code folds poorly), even
        though sibling nests stay affine.
        """
        # a *flow* dependence whose relation did not fold (no
        # piecewise-affine representation) poisons its endpoints; mere
        # domain over-approximation does not (the relation is still
        # exact), and storage (anti/output) dependences never do --
        # they are removable by expansion/privatization (the paper's
        # own case study array-expands the ``sum`` scalar) and are
        # multi-valued by nature (one write, many readers)
        bad_deps: Set[StmtKey] = set()
        for dep in self.transform_deps():
            if dep.relation is None and dep.key.kind in ("flow", "reg"):
                # only the *consumer* side is poisoned: the producer's
                # region stays affine even when some far-away consumer
                # reads it at data-dependent points (e.g. affine init
                # sweeps feeding an irregular kernel)
                bad_deps.add(dep.key.dst)

        def leaf_of(fs: FoldedStatement):
            ctx = fs.stmt.context
            return tuple(ctx[j] for j in range(len(ctx) - 1))

        bad_leaves = set()
        for key, fs in self.statements.items():
            if not self.stmt_is_affine(key, bad_deps):
                bad_leaves.add(leaf_of(fs))
        total = 0
        for key, fs in self.statements.items():
            if leaf_of(fs) in bad_leaves:
                continue
            if fs.is_scev or self.stmt_is_affine(key, bad_deps):
                total += fs.count
        return total

    def statements_of_uid(self, uid: int) -> List[FoldedStatement]:
        return [fs for (u, _), fs in self.statements.items() if u == uid]

    def deps_between_uids(
        self, src_uid: int, dst_uid: int, kind: Optional[str] = None
    ) -> List[FoldedDep]:
        out = []
        for dep in self.deps.values():
            if dep.key.src[0] == src_uid and dep.key.dst[0] == dst_uid:
                if kind is None or dep.key.kind == kind:
                    out.append(dep)
        return out
