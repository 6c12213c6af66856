"""Codec for the statements and dependences of a folded polyhedral DDG.

The :class:`~repro.folding.folder.FoldedDDG` is precisely the artifact
POLY-PROF exists to produce -- persisting it turns re-analysis of an
unchanged workload into a lookup.  This module encodes single folded
statements and dependences; :mod:`repro.incr.regions` groups them into
the per-function regions the store persists, and
:mod:`repro.incr.stitch` decodes them back into a canonically ordered
DDG.  :func:`encode_folded_ddg` is the program-free whole-DDG form used
to compare two folds byte for byte.

Static :class:`~repro.isa.instructions.Instr` objects are *not*
serialized: a statement references its instruction by uid, resolved
against the program at decode time.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ddg.graph import DepKey, Statement, StmtKey
from ..isa.instructions import Instr
from ..poly.codec import (
    decode_expr,
    decode_function,
    decode_imap,
    decode_iset,
    encode_expr,
    encode_function,
    encode_imap,
    encode_iset,
)
from .folder import FoldedDDG, FoldedDep, FoldedStatement


def _encode_statement(fs: FoldedStatement) -> dict:
    label_pieces = None
    if fs.label_pieces is not None:
        label_pieces = [
            [encode_iset(dom), encode_function(fn), cnt]
            for dom, fn, cnt in fs.label_pieces
        ]
    return {
        "uid": fs.stmt.key[0],
        "ctx_id": fs.stmt.key[1],
        "func": fs.stmt.func,
        "context": [list(elem) for elem in fs.stmt.context],
        "domain": encode_iset(fs.domain),
        "count": fs.count,
        "exact": fs.exact,
        "label_pieces": label_pieces,
        "had_label": fs.had_label,
        "is_scev": fs.is_scev,
    }


def _decode_statement(
    data: dict, instr_of: Dict[int, Instr]
) -> FoldedStatement:
    uid = int(data["uid"])
    key: StmtKey = (uid, int(data["ctx_id"]))
    instr = instr_of.get(uid)
    if instr is None:
        raise ValueError(f"statement uid {uid} not in program")
    stmt = Statement(
        key=key,
        instr=instr,
        func=data["func"],
        context=tuple(tuple(elem) for elem in data["context"]),
    )
    label_pieces = None
    if data["label_pieces"] is not None:
        label_pieces = [
            (decode_iset(dom), decode_function(fn), int(cnt))
            for dom, fn, cnt in data["label_pieces"]
        ]
    return FoldedStatement(
        stmt=stmt,
        domain=decode_iset(data["domain"]),
        count=int(data["count"]),
        exact=bool(data["exact"]),
        label_pieces=label_pieces,
        had_label=bool(data["had_label"]),
        is_scev=bool(data["is_scev"]),
    )


def _encode_dep(fd: FoldedDep) -> dict:
    return {
        "src": list(fd.key.src),
        "dst": list(fd.key.dst),
        "kind": fd.key.kind,
        "count": fd.count,
        "domain": encode_iset(fd.domain),
        "domain_exact": fd.domain_exact,
        "relation": (
            encode_imap(fd.relation) if fd.relation is not None else None
        ),
        "partial_src": (
            None
            if fd.partial_src is None
            else [
                None if e is None else encode_expr(e)
                for e in fd.partial_src
            ]
        ),
        "src_depth": fd.src_depth,
        "dst_depth": fd.dst_depth,
    }


def _decode_dep(data: dict) -> FoldedDep:
    partial: Optional[list] = None
    if data["partial_src"] is not None:
        partial = [
            None if e is None else decode_expr(e)
            for e in data["partial_src"]
        ]
    return FoldedDep(
        key=DepKey(
            src=tuple(data["src"]),
            dst=tuple(data["dst"]),
            kind=data["kind"],
        ),
        count=int(data["count"]),
        domain=decode_iset(data["domain"]),
        domain_exact=bool(data["domain_exact"]),
        relation=(
            decode_imap(data["relation"])
            if data["relation"] is not None
            else None
        ),
        partial_src=partial,
        src_depth=int(data["src_depth"]),
        dst_depth=int(data["dst_depth"]),
    )


def encode_folded_ddg(ddg: FoldedDDG) -> dict:
    """Serialize a folded DDG (insertion order preserved)."""
    return {
        "statements": [
            _encode_statement(fs) for fs in ddg.statements.values()
        ],
        "deps": [_encode_dep(fd) for fd in ddg.deps.values()],
    }
