"""The stage-2 (``ddg-``) payload: the folded DDG the feedback stages read.

One payload per (program, options) pair, holding

* ``regions`` -- the folded polyhedral DDG, stored once, carved into
  one region per function (:func:`encode_regions`);
* ``instr_count``, ``stats`` and ``schedule_tree`` -- the
  Instrumentation-II metadata a warm
  :class:`~repro.pipeline.AnalysisResult` must still expose (dynamic
  instruction count, run statistics, the dynamic schedule tree for
  flame graphs);
* ``dep_vectors`` -- the dependence vectors that feed the feedback
  stages (:func:`encode_dep_vectors`).

A warm hit rebuilds the whole DDG from the regions.  The store's
format version salts every key, so a layout change here is a bump of
``STORE_FORMAT_VERSION`` and nothing else.

**No part of the payload names a uid.**  Statements carry their
function-local ordinal (canonical traversal order, see
:func:`repro.isa.fingerprint.function_uid_ordinals`) and their interned
context id; dependence endpoints and vector endpoints carry
``(function, ordinal, context id)`` references.  The payload therefore
decodes against any program whose functions number their instructions
alike in canonical order: the analyzed program itself or a renumbered
or function-reordered twin of it, which shares its store keys (both
are warm hits).  Context ids are taken verbatim: a twin's execution is
bit-identical to the baseline's, and therefore so is its interning
sequence.

**Regions.**  Dependences are owned by their *destination*
statement's function -- the side whose execution discovers the
dependence -- so each is stored exactly once.  One polyhedron serves
many statements and dependences (a dependence domain is usually its
destination's domain), so a region spells each value out once, in
four tables, and its rows refer to them by index:

* ``sets`` -- encoded :class:`~repro.poly.pset.ISet` values (statement
  domains, label-piece domains, dependence domains);
* ``maps`` -- encoded :class:`~repro.poly.pmap.IMap` dependence
  relations;
* ``exprs`` -- encoded :class:`~repro.poly.affine.AffineExpr` values
  (the components of label-piece functions and of dependences'
  ``partial_src``);
* ``ctxs`` -- ``[ctx_id, context]`` pairs: the context tuple and the
  id the analysis interned it under.

Each table holds distinct entries.  Statement and dependence rows are
fixed-order lists (:data:`STMT_FIELDS`, :data:`DEP_FIELDS`); what the
decoder re-derives -- uids, the statement's function, the
destination's function -- is not stored.  Each table entry is decoded
once; every statement, label piece and dependence that names it
shares the decoded object, as the statements of a cold fold share its
fold results.

**Dependence vectors.**  :func:`~repro.schedule.deps.analyze_deps`
computes the sign pattern and rational bounds of every dependence
distance, a pure function of the folded DDG, so the payload persists
it alongside the DDG; the passes downstream (forest analysis,
planning) are always re-run.  A vector is one fixed-order row
(:data:`VECTOR_FIELDS`) holding only the signs and bounds; the loop
paths, the common depth and the reduction flag are read off the
decoded statements by :func:`~repro.schedule.deps.dep_vector`, as
``analyze_deps`` reads them.  Its rational bounds index one table of
distinct ``[num, den]`` pairs.  The decoder resolves the rows against
the decoded DDG, so a vector and the DDG share one ``FoldedDep``
object exactly as they do on the cold path.

Every inconsistency -- a function without its region or a region
without its function, an ordinal past the function's end, a key
decoded twice, a dependence whose source is not in the decoded DDG, a
row of the wrong length, an index past its table, a vector for an
unknown stream -- raises :class:`PayloadMismatch`, which the store's
decoded load treats as a miss, so the pipeline runs cold.  The decoded
DDG is put in :func:`repro.folding.canonical_ddg`'s order, making it
byte-identical (through every report) to a cold analysis of the same
program.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..ddg.graph import DepKey, Statement, StmtKey
from ..folding.folder import FoldedDDG, FoldedDep, FoldedStatement
from ..isa.fingerprint import function_ordered_uids, function_uid_ordinals
from ..isa.instructions import Instr
from ..isa.program import Program
from ..poly.affine import AffineExpr, AffineFunction
from ..poly.codec import (
    decode_expr,
    decode_imap,
    decode_iset,
    encode_expr,
    encode_imap,
    encode_iset,
)
from ..poly.pmap import IMap
from ..poly.pset import ISet
from ..schedule.deps import DepVector, dep_vector
from .artifacts import (
    decode_run_stats,
    decode_schedule_tree,
    encode_run_stats,
    encode_schedule_tree,
)


class PayloadMismatch(RuntimeError):
    """A stored stage-2 payload is inconsistent with the program it is
    decoded against; the caller must fall back to a cold analysis."""


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
#: the positional layout of one stored dependence vector; ``src`` and
#: ``dst`` are ``[function, ordinal, context id]``, ``bounds`` is one
#: ``[lo, hi]`` pair per common dimension, each null (unbounded) or an
#: index into the payload's ``bounds`` table
VECTOR_FIELDS = ("src", "dst", "kind", "signs", "bounds")


def uid_to_ordinal(program: Program) -> Dict[int, Tuple[str, int]]:
    """Global uid -> (function, local ordinal) over a whole program."""
    out: Dict[int, Tuple[str, int]] = {}
    for fname, fn in program.functions.items():
        for uid, o in function_uid_ordinals(fn).items():
            out[uid] = (fname, o)
    return out


def ordinal_uids(program: Program) -> Dict[Tuple[str, int], int]:
    """(function, local ordinal) -> global uid over a whole program:
    the inverse of :func:`uid_to_ordinal`."""
    uid_of: Dict[Tuple[str, int], int] = {}
    for fname, fn in program.functions.items():
        for o, uid in enumerate(function_ordered_uids(fn)):
            uid_of[(fname, o)] = uid
    return uid_of


# -- encode -------------------------------------------------------------------------


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

    def payload(self) -> dict:
        return {
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
    return {fname: rgn.payload() for fname, rgn in regions.items()}


def encode_dep_vectors(
    vectors: List[DepVector], ord_of: Dict[int, Tuple[str, int]]
) -> dict:
    """``{"bounds": [[num, den], ...], "rows": [row, ...]}``: one
    positional row per vector, in :data:`VECTOR_FIELDS` order, and the
    table of the distinct bounds the rows index.

    ``ord_of`` maps a uid to its (function, ordinal), as
    :func:`uid_to_ordinal` builds it."""
    table: List[List[int]] = []
    # keyed by the plain (num, den) pair: a Fraction hashes in Python
    index: Dict[Tuple[int, int], int] = {}

    def bound(f: Optional[Fraction]) -> Optional[int]:
        if f is None:
            return None
        pair = (f.numerator, f.denominator)
        i = index.get(pair)
        if i is None:
            i = index[pair] = len(table)
            table.append(list(pair))
        return i

    rows = []
    for dv in vectors:
        key = dv.dep.key
        sfunc, so = ord_of[key.src[0]]
        dfunc, do = ord_of[key.dst[0]]
        rows.append([
            [sfunc, so, key.src[1]],
            [dfunc, do, key.dst[1]],
            key.kind,
            list(dv.signs),
            [[bound(lo), bound(hi)] for lo, hi in dv.bounds],
        ])
    return {"bounds": table, "rows": rows}


def encode_stage2(program, folded: FoldedDDG, ddgp, dep_vectors) -> dict:
    ord_of = uid_to_ordinal(program)
    return {
        "regions": encode_regions(program, folded, ord_of),
        "instr_count": ddgp.builder.instr_count,
        "stats": encode_run_stats(ddgp.stats),
        "schedule_tree": encode_schedule_tree(ddgp.builder.schedule_tree),
        "dep_vectors": encode_dep_vectors(dep_vectors, ord_of),
    }


# -- decode -------------------------------------------------------------------------


def stitch_folded(
    program: Program,
    regions: Dict[str, dict],
    uid_of: Optional[Dict[Tuple[str, int], int]] = None,
) -> FoldedDDG:
    """Decode region payloads into one folded DDG of ``program``.

    ``uid_of`` is the program's :func:`ordinal_uids` table when the
    caller already built it (a stage-2 decode shares it with the
    dependence vectors).
    """
    if set(regions) != set(program.functions):
        # the encoder writes one region per function, even an empty one
        raise PayloadMismatch(
            f"regions {sorted(regions)} are not the program's functions "
            f"{sorted(program.functions)}"
        )
    if uid_of is None:
        uid_of = ordinal_uids(program)
    instr_of: Dict[int, Instr] = {
        ins.uid: ins for _fn, _bb, ins in program.all_instrs()
    }

    def missing(func: str, ord_: int) -> PayloadMismatch:
        return PayloadMismatch(
            f"region {func!r}: ordinal {ord_} not in program"
        )

    statements: Dict[StmtKey, FoldedStatement] = {}
    #: dependences keyed by their plain ``(src, dst, kind)`` tuple,
    #: which is also their canonical sort key: tuples hash and compare
    #: in C, a frozen ``DepKey`` in Python
    deps: Dict[tuple, FoldedDep] = {}

    for func, payload in regions.items():
        try:
            # tables keyed by position: a negative index misses (KeyError)
            # instead of wrapping around to the end of a list
            sets = {
                i: decode_iset(e) for i, e in enumerate(payload["sets"])
            }
            maps = {
                i: decode_imap(e) for i, e in enumerate(payload["maps"])
            }
            exprs = {
                i: decode_expr(e) for i, e in enumerate(payload["exprs"])
            }
            ctxs: Dict[int, Tuple[int, tuple]] = {
                i: (cid, tuple(tuple(elem) for elem in raw))
                for i, (cid, raw) in enumerate(payload["ctxs"])
            }

            for (
                o, ci, di, count, exact, labels, had_label, is_scev
            ) in payload["statements"]:
                uid = uid_of.get((func, o))
                if uid is None:
                    raise missing(func, o)
                cid, context = ctxs[ci]
                key: StmtKey = (uid, cid)
                if key in statements:
                    raise PayloadMismatch(
                        f"region {func!r}: statement {key} repeated"
                    )
                # positional arguments, in field order: the row loops
                # are the decode's hot path
                statements[key] = FoldedStatement(
                    Statement(key, instr_of[uid], func, context),
                    sets[di],
                    count,
                    exact,
                    (
                        None
                        if labels is None
                        else [
                            (
                                sets[si],
                                AffineFunction([exprs[ei] for ei in fn]),
                                cnt,
                            )
                            for si, fn, cnt in labels
                        ]
                    ),
                    had_label,
                    is_scev,
                )

            for (
                sfunc, so, sci, do, dci, kind, count, di, domain_exact,
                ri, partial, src_depth, dst_depth,
            ) in payload["deps"]:
                # the (function, ordinal) -> uid lookups, inlined
                suid = uid_of.get((sfunc, so))
                if suid is None:
                    raise missing(sfunc, so)
                duid = uid_of.get((func, do))
                if duid is None:
                    raise missing(func, do)
                src = (suid, ctxs[sci][0])
                dst = (duid, ctxs[dci][0])
                tkey = (src, dst, kind)
                if tkey in deps:
                    raise PayloadMismatch(
                        f"region {func!r}: dep {tkey} repeated"
                    )
                deps[tkey] = FoldedDep(
                    DepKey(src, dst, kind),
                    count,
                    sets[di],
                    domain_exact,
                    None if ri is None else maps[ri],
                    (
                        None
                        if partial is None
                        else [
                            None if ei is None else exprs[ei]
                            for ei in partial
                        ]
                    ),
                    src_depth,
                    dst_depth,
                )
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise PayloadMismatch(
                f"region {func!r}: malformed payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    # every dependence source must be a decoded statement -- a dangling
    # one means the payload lost a region or a row
    for src, dst, kind in deps:
        if src not in statements:
            raise PayloadMismatch(
                f"dep {(src, dst, kind)} references a statement outside "
                "the decoded DDG"
            )
    # canonical order (see canonical_ddg), sorted on the plain tuples
    return FoldedDDG(
        statements={k: statements[k] for k in sorted(statements)},
        deps={fd.key: fd for fd in (deps[t] for t in sorted(deps))},
    )


def decode_dep_vectors(
    data: dict, ddg: FoldedDDG, uid_of: Dict[Tuple[str, int], int]
) -> List[DepVector]:
    """The vectors of ``ddg``, one per ``transform_deps()`` entry and in
    that order, whatever order they were stored in -- the order
    :func:`~repro.schedule.deps.analyze_deps` computes them in.

    ``uid_of`` maps a (function, ordinal) to the decoding program's
    uid.  Each ``bounds`` table entry is decoded once and shared.  An
    endpoint outside the program, a bound index outside the table, a
    row for a stream that is not a transformation dependence of
    ``ddg``, a repeated row, a dependence with no row, or signs and
    bounds that do not span the common depth raise
    :class:`ValueError` (or the ``KeyError``/``TypeError`` of a
    malformed row)."""
    # keyed by position: a negative index misses instead of wrapping
    bounds_of: Dict[Optional[int], Optional[Fraction]] = {
        i: Fraction(int(num), int(den))
        for i, (num, den) in enumerate(data["bounds"])
    }
    bounds_of[None] = None

    def endpoint(ref) -> Tuple[int, int]:
        func, o, cid = ref
        uid = uid_of.get((func, o))
        if uid is None:
            raise ValueError(
                f"dependence vector endpoint {func!r}:{o} not in program"
            )
        return (uid, cid)

    # rows keyed by the plain (src, dst, kind) tuple of their stream,
    # which hashes in C where a frozen DepKey hashes in Python
    rows: Dict[tuple, list] = {}
    for row in data["rows"]:
        key = (endpoint(row[0]), endpoint(row[1]), row[2])
        if key in rows:
            raise ValueError(f"two dependence vectors for stream {key}")
        rows[key] = row
    out: List[DepVector] = []
    for dep in ddg.transform_deps():
        key = dep.key
        row = rows.pop((key.src, key.dst, key.kind), None)
        if row is None:
            raise ValueError(f"no dependence vector for stream {key}")
        _src, _dst, _kind, signs, bounds = row
        out.append(
            dep_vector(
                ddg,
                dep,
                (
                    tuple(signs),
                    tuple(
                        (bounds_of[lo], bounds_of[hi]) for lo, hi in bounds
                    ),
                ),
            )
        )
    if rows:
        raise ValueError(
            f"dependence vector for unknown stream {next(iter(rows))}"
        )
    return out


class CachedInstrumentation:
    """Warm-path stand-in for the :class:`~repro.ddg.builder.DDGBuilder`
    slot of a :class:`~repro.pipeline.DDGProfile`: exposes exactly the
    two attributes downstream consumers read (``instr_count`` and
    ``schedule_tree``)."""

    __slots__ = ("instr_count", "schedule_tree")

    def __init__(self, instr_count: int, schedule_tree) -> None:
        self.instr_count = instr_count
        self.schedule_tree = schedule_tree


def decode_stage2(
    data: dict, program
) -> Tuple[FoldedDDG, object, List[DepVector]]:
    """Rebuild the folded DDG from the payload's regions (verbatim
    context ids), plus the profile metadata and dependence vectors.

    One (function, ordinal) -> uid table serves the regions and the
    vectors.  Any inconsistency raises :class:`PayloadMismatch`."""
    from ..pipeline import DDGProfile

    uid_of = ordinal_uids(program)
    folded = stitch_folded(program, data["regions"], uid_of)
    ddgp = DDGProfile(
        builder=CachedInstrumentation(
            int(data["instr_count"]),
            decode_schedule_tree(data["schedule_tree"]),
        ),
        sink=None,
        stats=decode_run_stats(data["stats"]),
    )
    try:
        vectors = decode_dep_vectors(data["dep_vectors"], folded, uid_of)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise PayloadMismatch(
            f"dependence vectors: {type(exc).__name__}: {exc}"
        ) from exc
    return folded, ddgp, vectors
