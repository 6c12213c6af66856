"""Stitch fresh frontier folds with reused regions.

The incremental stage 2 produces a *partial* folded DDG covering only
the frontier functions; everything else is decoded from the regions of
the baseline's stage-2 artifact and re-mapped onto the submitted
program:

* a statement's global uid is recovered from its function-local
  ordinal (rename/renumber-invariant);
* its context id is re-interned through the *live run's* context
  table, so reused and fresh statements share one id space (on the
  no-execution fast path the baseline ids are taken verbatim -- an
  all-unchanged diff implies a bit-identical execution and therefore a
  bit-identical interning sequence).  A warm stage-2 hit takes the
  same verbatim path with every region of its own payload and no fresh
  fold.

Each region's ``sets``/``maps``/``ctxs`` table entry is decoded (and
its context resolved) once; every statement, label piece and
dependence that names the entry shares the decoded object, as the
statements of a cold fold share its fold results.

Every inconsistency -- a context the live run never observed, an
ordinal past the function's end, a key landing on both sides, a row
of the wrong length or an index past its table -- raises
:class:`IncrementalMismatch`, which the pipeline answers with a cold
re-fold (a warm decode treats it as a store miss).  The stitched
result passes through :func:`repro.folding.canonical_ddg`, making it
byte-identical (through the codec and every report) to a cold full
analysis of the same program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ddg.graph import DepKey, Statement, StmtKey
from ..folding.folder import (
    FoldedDDG,
    FoldedDep,
    FoldedStatement,
    canonical_ddg,
)
from ..isa.fingerprint import function_ordered_uids
from ..isa.instructions import Instr
from ..isa.program import Program
from ..poly.codec import decode_expr, decode_function, decode_imap, decode_iset
from .regions import REGION_FORMAT_VERSION


class IncrementalMismatch(RuntimeError):
    """Reused baseline artifacts are inconsistent with the live run;
    the caller must fall back to a cold analysis."""


def ordinal_uids(program: Program) -> Dict[Tuple[str, int], int]:
    """(function, local ordinal) -> global uid over a whole program:
    the inverse of :func:`repro.incr.regions.uid_to_ordinal`."""
    uid_of: Dict[Tuple[str, int], int] = {}
    for fname, fn in program.functions.items():
        for o, uid in enumerate(function_ordered_uids(fn)):
            uid_of[(fname, o)] = uid
    return uid_of


def stitch_folded(
    program: Program,
    fresh: Optional[FoldedDDG],
    regions: Dict[str, dict],
    ctx_ids: Optional[Dict[Tuple, int]],
    uid_of: Optional[Dict[Tuple[str, int], int]] = None,
) -> FoldedDDG:
    """Merge the frontier's fresh fold with reused region payloads.

    ``ctx_ids`` is the live run's context-interning table
    (``DDGBuilder.context_ids``); ``None`` selects the verbatim-id
    fast path for all-unchanged diffs where no execution happened.
    ``uid_of`` is the program's :func:`ordinal_uids` table when the
    caller already built it (a stage-2 decode shares it with the
    dependence vectors).
    """
    if uid_of is None:
        uid_of = ordinal_uids(program)
    instr_of: Dict[int, Instr] = {
        ins.uid: ins for _fn, _bb, ins in program.all_instrs()
    }

    def uid_at(func: str, ord_: int) -> int:
        uid = uid_of.get((func, ord_))
        if uid is None:
            raise IncrementalMismatch(
                f"region {func!r}: ordinal {ord_} not in program"
            )
        return uid

    statements = dict(fresh.statements) if fresh is not None else {}
    deps = dict(fresh.deps) if fresh is not None else {}

    for func, payload in regions.items():
        if payload.get("format") != REGION_FORMAT_VERSION:
            raise IncrementalMismatch(
                f"region {func!r}: format {payload.get('format')!r}"
            )
        try:
            # tables keyed by position: a negative index misses (KeyError)
            # instead of wrapping around to the end of a list
            sets = {
                i: decode_iset(e) for i, e in enumerate(payload["sets"])
            }
            maps = {
                i: decode_imap(e) for i, e in enumerate(payload["maps"])
            }
            ctxs: Dict[int, Tuple[int, tuple]] = {}
            for i, (cid, raw) in enumerate(payload["ctxs"]):
                context = tuple(tuple(elem) for elem in raw)
                if ctx_ids is not None:
                    cid = ctx_ids.get(context)
                    if cid is None:
                        raise IncrementalMismatch(
                            f"region {func!r}: context never observed "
                            "by this run"
                        )
                ctxs[i] = (cid, context)

            for (
                o, ci, di, count, exact, labels, had_label, is_scev
            ) in payload["statements"]:
                uid = uid_at(func, o)
                cid, context = ctxs[ci]
                key: StmtKey = (uid, cid)
                if key in statements:
                    raise IncrementalMismatch(
                        f"region {func!r}: statement {key} already "
                        "folded fresh"
                    )
                statements[key] = FoldedStatement(
                    stmt=Statement(
                        key=key, instr=instr_of[uid], func=func,
                        context=context,
                    ),
                    domain=sets[di],
                    count=count,
                    exact=exact,
                    label_pieces=(
                        None
                        if labels is None
                        else [
                            (sets[si], decode_function(fn), cnt)
                            for si, fn, cnt in labels
                        ]
                    ),
                    had_label=had_label,
                    is_scev=is_scev,
                )

            for (
                sfunc, so, sci, do, dci, kind, count, di, domain_exact,
                ri, partial, src_depth, dst_depth,
            ) in payload["deps"]:
                dkey = DepKey(
                    src=(uid_at(sfunc, so), ctxs[sci][0]),
                    dst=(uid_at(func, do), ctxs[dci][0]),
                    kind=kind,
                )
                if dkey in deps:
                    raise IncrementalMismatch(
                        f"region {func!r}: dep {dkey} already folded fresh"
                    )
                deps[dkey] = FoldedDep(
                    key=dkey,
                    count=count,
                    domain=sets[di],
                    domain_exact=domain_exact,
                    relation=None if ri is None else maps[ri],
                    partial_src=(
                        None
                        if partial is None
                        else [
                            None if e is None else decode_expr(e)
                            for e in partial
                        ]
                    ),
                    src_depth=src_depth,
                    dst_depth=dst_depth,
                )
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise IncrementalMismatch(
                f"region {func!r}: malformed payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    stitched = canonical_ddg(statements, deps)

    # reused dep endpoints must reference statements the stitched DDG
    # actually contains -- a dangling source means the slice was wrong
    for dkey in stitched.deps:
        if dkey.src not in stitched.statements:
            raise IncrementalMismatch(
                f"dep {dkey} references a statement outside the stitch"
            )
    return stitched
