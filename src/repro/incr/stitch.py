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

Every inconsistency -- a context the live run never observed, an
ordinal past the function's end, a key landing on both sides -- raises
:class:`IncrementalMismatch`, which the pipeline answers with a cold
re-fold (a warm decode treats it as a store miss).  The stitched
result passes through :func:`repro.folding.canonical_ddg`, making it
byte-identical (through the codec and every report) to a cold full
analysis of the same program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ddg.graph import StmtKey
from ..folding.folder import FoldedDDG, canonical_ddg
from ..isa.fingerprint import function_ordered_uids
from ..isa.instructions import Instr
from ..isa.program import Program
from .regions import REGION_FORMAT_VERSION, decode_dep, decode_statement


class IncrementalMismatch(RuntimeError):
    """Reused baseline artifacts are inconsistent with the live run;
    the caller must fall back to a cold analysis."""


def stitch_folded(
    program: Program,
    fresh: Optional[FoldedDDG],
    regions: Dict[str, dict],
    ctx_ids: Optional[Dict[Tuple, int]],
) -> FoldedDDG:
    """Merge the frontier's fresh fold with reused region payloads.

    ``ctx_ids`` is the live run's context-interning table
    (``DDGBuilder.context_ids``); ``None`` selects the verbatim-id
    fast path for all-unchanged diffs where no execution happened.
    """
    uid_of: Dict[Tuple[str, int], int] = {}
    for fname, fn in program.functions.items():
        for o, uid in enumerate(function_ordered_uids(fn)):
            uid_of[(fname, o)] = uid
    instr_of: Dict[int, Instr] = {
        ins.uid: ins for _fn, _bb, ins in program.all_instrs()
    }

    def resolve(func: str, ord_: int, context, stored_cid: int) -> StmtKey:
        uid = uid_of.get((func, int(ord_)))
        if uid is None:
            raise IncrementalMismatch(
                f"region {func!r}: ordinal {ord_} not in program"
            )
        if ctx_ids is None:
            return (uid, int(stored_cid))
        ctx = tuple(tuple(elem) for elem in context)
        cid = ctx_ids.get(ctx)
        if cid is None:
            raise IncrementalMismatch(
                f"region {func!r}: context never observed by this run"
            )
        return (uid, cid)

    statements = dict(fresh.statements) if fresh is not None else {}
    deps = dict(fresh.deps) if fresh is not None else {}

    for func, payload in regions.items():
        if payload.get("format") != REGION_FORMAT_VERSION:
            raise IncrementalMismatch(
                f"region {func!r}: format {payload.get('format')!r}"
            )
        for item in payload["statements"]:
            key = resolve(func, item["ord"], item["context"], item["ctx_id"])
            if key in statements:
                raise IncrementalMismatch(
                    f"region {func!r}: statement {key} already folded fresh"
                )
            data = dict(item)
            data["uid"], data["ctx_id"] = key
            data["func"] = func
            statements[key] = decode_statement(data, instr_of)
        for item in payload["deps"]:
            sref = item["src_ref"]
            dref = item["dst_ref"]
            src = resolve(
                sref["func"], sref["ord"], sref["context"], item["src"][1]
            )
            dst = resolve(
                dref["func"], dref["ord"], dref["context"], item["dst"][1]
            )
            data = dict(item)
            data["src"] = list(src)
            data["dst"] = list(dst)
            fd = decode_dep(data)
            if fd.key in deps:
                raise IncrementalMismatch(
                    f"region {func!r}: dep {fd.key} already folded fresh"
                )
            deps[fd.key] = fd
    stitched = canonical_ddg(statements, deps)

    # reused dep endpoints must reference statements the stitched DDG
    # actually contains -- a dangling source means the slice was wrong
    for dkey in stitched.deps:
        if dkey.src not in stitched.statements:
            raise IncrementalMismatch(
                f"dep {dkey} references a statement outside the stitch"
            )
    return stitched
