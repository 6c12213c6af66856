"""Decode a stage-2 payload's per-function regions into a folded DDG.

Every region of a stored stage-2 (``ddg-``) payload is decoded and
re-mapped onto the submitted program -- the analyzed program itself
or a renumbered or function-reordered twin of it, which shares its
store keys (both are warm hits):

* a statement's global uid is recovered from its function-local
  ordinal (rename/renumber-invariant);
* its context id is taken verbatim: a twin's execution is
  bit-identical to the baseline's, and therefore so is its interning
  sequence.

Each region's ``sets``/``maps``/``exprs``/``ctxs`` table entry is
decoded once;
every statement, label piece and dependence that names the entry
shares the decoded object, as the statements of a cold fold share its
fold results.

Every inconsistency -- a function without its region or a region
without its function, an ordinal past the function's end, a key
decoded twice, a dependence whose source is not in the decoded DDG, a
row of the wrong length or an index past its table -- raises
:class:`IncrementalMismatch`, which the store's decoded load treats as
a miss, so the pipeline runs cold.  The decoded
result is put in :func:`repro.folding.canonical_ddg`'s order, making
it byte-identical (through the codec and every report) to a cold full
analysis of the same program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ddg.graph import DepKey, Statement, StmtKey
from ..folding.folder import FoldedDDG, FoldedDep, FoldedStatement
from ..isa.fingerprint import function_ordered_uids
from ..isa.instructions import Instr
from ..isa.program import Program
from ..poly.affine import AffineFunction
from ..poly.codec import decode_expr, decode_imap, decode_iset
from .regions import REGION_FORMAT_VERSION


class IncrementalMismatch(RuntimeError):
    """A stored stage-2 payload is inconsistent with the program it is
    decoded against; the caller must fall back to a cold analysis."""


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
        raise IncrementalMismatch(
            f"regions {sorted(regions)} are not the program's functions "
            f"{sorted(program.functions)}"
        )
    if uid_of is None:
        uid_of = ordinal_uids(program)
    instr_of: Dict[int, Instr] = {
        ins.uid: ins for _fn, _bb, ins in program.all_instrs()
    }

    def missing(func: str, ord_: int) -> IncrementalMismatch:
        return IncrementalMismatch(
            f"region {func!r}: ordinal {ord_} not in program"
        )

    statements: Dict[StmtKey, FoldedStatement] = {}
    #: dependences keyed by their plain ``(src, dst, kind)`` tuple,
    #: which is also their canonical sort key: tuples hash and compare
    #: in C, a frozen ``DepKey`` in Python
    deps: Dict[tuple, FoldedDep] = {}

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
                    raise IncrementalMismatch(
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
                    raise IncrementalMismatch(
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
            raise IncrementalMismatch(
                f"region {func!r}: malformed payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    # every dependence source must be a decoded statement -- a dangling
    # one means the payload lost a region or a row
    for src, dst, kind in deps:
        if src not in statements:
            raise IncrementalMismatch(
                f"dep {(src, dst, kind)} references a statement outside "
                "the decoded DDG"
            )
    # canonical order (see canonical_ddg), sorted on the plain tuples
    return FoldedDDG(
        statements={k: statements[k] for k in sorted(statements)},
        deps={fd.key: fd for fd in (deps[t] for t in sorted(deps))},
    )
