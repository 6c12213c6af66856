"""Per-function folded-DDG regions: the stored form of a folded DDG.

The stage-2 (``ddg-``) artifact stores its folded DDG exactly once,
carved into one region per function, from which a warm hit or a
renumbered twin rebuilds the whole DDG.  Identities are stored
*position-independently*: statements carry their function-local
ordinal (canonical traversal order, see
:func:`repro.isa.fingerprint.function_uid_ordinals`) and their interned
context; dependence endpoints carry ``(func, ordinal, context)``
references.  Re-mapping onto a re-numbered program is then pure
bookkeeping (:mod:`.stitch`), with no dependence on how the baseline
frontend happened to number instructions.

Dependences are owned by their *destination* statement's function --
the side whose execution discovers the dependence -- so each is
stored exactly once.

One polyhedron serves many statements and dependences (a dependence
domain is usually its destination's domain), so a region spells each
value out once, in four tables, and its rows refer to them by index:

* ``sets`` -- encoded :class:`~repro.poly.pset.ISet` values (statement
  domains, label-piece domains, dependence domains);
* ``maps`` -- encoded :class:`~repro.poly.pmap.IMap` dependence
  relations;
* ``exprs`` -- encoded :class:`~repro.poly.affine.AffineExpr` values
  (the components of label-piece functions and of dependences'
  ``partial_src``);
* ``ctxs`` -- ``[ctx_id, context]`` pairs: the context tuple and the
  id the analysis interned it under (a decode keeps that id
  verbatim).

Each table holds distinct entries.  Statement and dependence rows are
fixed-order lists (:data:`STMT_FIELDS`, :data:`DEP_FIELDS`); what the
stitcher re-derives -- uids, the statement's function, the
destination's function -- is not stored.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..folding.folder import FoldedDDG
from ..isa.fingerprint import function_uid_ordinals
from ..isa.program import Program
from ..poly.affine import AffineExpr
from ..poly.codec import encode_expr, encode_imap, encode_iset
from ..poly.pmap import IMap
from ..poly.pset import ISet

#: bump on any change to the region payload layout (regions travel
#: inside stage-2 artifacts, so a bump also needs STORE_FORMAT_VERSION)
#: v2: per-region ``sets``/``maps``/``ctxs`` tables and positional rows
#: v3: an ``exprs`` table; label-piece functions and ``partial_src``
#: hold indexes into it
REGION_FORMAT_VERSION = 3

#: the positional layout of a statement row; ``ctx`` and ``domain``
#: index the ``ctxs`` and ``sets`` tables, ``label_pieces`` is null or
#: a list of ``[set index, [expr index, ...], point count]``
STMT_FIELDS = (
    "ord", "ctx", "domain", "count", "exact", "label_pieces",
    "had_label", "is_scev",
)
#: the positional layout of a dependence row; the destination is a
#: statement of the row's own region, ``relation`` indexes ``maps`` (or
#: is null), ``partial_src`` is null or a list of null/``exprs`` indexes
DEP_FIELDS = (
    "src_func", "src_ord", "src_ctx", "dst_ord", "dst_ctx", "kind",
    "count", "domain", "domain_exact", "relation", "partial_src",
    "src_depth", "dst_depth",
)

def uid_to_ordinal(program: Program) -> Dict[int, Tuple[str, int]]:
    """Global uid -> (function, local ordinal) over a whole program."""
    out: Dict[int, Tuple[str, int]] = {}
    for fname, fn in program.functions.items():
        for uid, o in function_uid_ordinals(fn).items():
            out[uid] = (fname, o)
    return out


def _set_key(s: ISet) -> tuple:
    return (
        s.space.names,
        tuple((p.dim, p.eqs, p.ineqs) for p in s.pieces),
    )


def _map_key(m: IMap) -> tuple:
    return (
        m.in_space.names,
        m.out_space.names,
        tuple(
            (dom.dim, dom.eqs, dom.ineqs,
             tuple((e.coeffs, e.const, e.den) for e in fn.exprs))
            for dom, fn in m.pieces
        ),
    )


class _Table:
    """One region table: encoded values, deduplicated by value.

    The fold shares one object among every statement and dependence
    that carries the same value, so an object seen again is found by
    ``id()`` before its (costlier) value key is built.  The object is
    kept alive beside its index, which keeps the ``id()`` valid."""

    __slots__ = ("entries", "_key", "_encode", "_by_id", "_by_value")

    def __init__(self, key: Callable, encode: Callable) -> None:
        self.entries: List = []
        self._key = key
        self._encode = encode
        self._by_id: Dict[int, Tuple[object, int]] = {}
        self._by_value: Dict[tuple, int] = {}

    def index(self, obj) -> int:
        hit = self._by_id.get(id(obj))
        if hit is not None:
            return hit[1]
        key = self._key(obj)
        i = self._by_value.get(key)
        if i is None:
            i = self._by_value[key] = len(self.entries)
            self.entries.append(self._encode(obj))
        self._by_id[id(obj)] = (obj, i)
        return i


class _RegionEncoder:
    """The tables and rows of one region under construction."""

    __slots__ = (
        "sets", "maps", "expr_index", "exprs", "ctx_index", "ctxs",
        "statements", "deps",
    )

    def __init__(self) -> None:
        self.sets = _Table(_set_key, encode_iset)
        self.maps = _Table(_map_key, encode_imap)
        self.expr_index: Dict[tuple, int] = {}
        self.exprs: List[list] = []
        self.ctx_index: Dict[Tuple[int, tuple], int] = {}
        self.ctxs: List[list] = []
        self.statements: List[list] = []
        self.deps: List[list] = []

    def ctx(self, cid: int, context: tuple) -> int:
        i = self.ctx_index.get((cid, context))
        if i is None:
            i = self.ctx_index[(cid, context)] = len(self.ctxs)
            self.ctxs.append([cid, [list(elem) for elem in context]])
        return i

    def expr(self, e: AffineExpr) -> int:
        # the value key is as cheap as an ``id()`` lookup, so unlike
        # the set and map tables this one is keyed by value alone
        key = (e.coeffs, e.const, e.den)
        i = self.expr_index.get(key)
        if i is None:
            i = self.expr_index[key] = len(self.exprs)
            self.exprs.append(encode_expr(e))
        return i

    def payload(self, fname: str) -> dict:
        return {
            "format": REGION_FORMAT_VERSION,
            "func": fname,
            "sets": self.sets.entries,
            "maps": self.maps.entries,
            "exprs": self.exprs,
            "ctxs": self.ctxs,
            "statements": self.statements,
            "deps": self.deps,
        }


def encode_regions(
    program: Program,
    folded: FoldedDDG,
    ord_of: Optional[Dict[int, Tuple[str, int]]] = None,
) -> Dict[str, dict]:
    """Carve one folded DDG into per-function region payloads.

    ``folded`` must be canonically ordered (every finalize path is), so
    the per-region tables and rows are deterministic for a given
    folded set.  ``ord_of`` is the program's :func:`uid_to_ordinal`
    table when the caller already built it.
    """
    if ord_of is None:
        ord_of = uid_to_ordinal(program)
    regions = {fname: _RegionEncoder() for fname in program.functions}
    for (uid, cid), fs in folded.statements.items():
        func, o = ord_of[uid]
        rgn = regions[func]
        sets, expr = rgn.sets, rgn.expr
        labels = None
        if fs.label_pieces is not None:
            labels = [
                [sets.index(dom), [expr(e) for e in fn.exprs], cnt]
                for dom, fn, cnt in fs.label_pieces
            ]
        rgn.statements.append([
            o, rgn.ctx(cid, fs.stmt.context), sets.index(fs.domain),
            fs.count, fs.exact, labels, fs.had_label, fs.is_scev,
        ])
    statements = folded.statements
    for dkey, fd in folded.deps.items():
        src, dst = dkey.src, dkey.dst
        sfunc, so = ord_of[src[0]]
        dfunc, do = ord_of[dst[0]]
        rgn = regions[dfunc]
        partial = fd.partial_src
        if partial is not None:
            expr = rgn.expr
            partial = [None if e is None else expr(e) for e in partial]
        rgn.deps.append([
            sfunc, so, rgn.ctx(src[1], statements[src].stmt.context),
            do, rgn.ctx(dst[1], statements[dst].stmt.context),
            dkey.kind, fd.count, rgn.sets.index(fd.domain),
            fd.domain_exact,
            None if fd.relation is None else rgn.maps.index(fd.relation),
            partial, fd.src_depth, fd.dst_depth,
        ])
    return {fname: rgn.payload(fname) for fname, rgn in regions.items()}
