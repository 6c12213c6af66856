"""Self-describing dict encoding of folded statements and dependences.

Each record spells out its uid, context and every polyhedral value in
full, so two folds compare byte for byte through
:func:`encode_folded_ddg`, and the sweep merge
(:mod:`repro.sweep.merge`) aligns folds of different runs by these
payloads.  Nothing decodes them: the store persists a folded DDG in
the compact per-function regions of :mod:`repro.store.stage2` (shared
value tables, positional rows).
"""

from __future__ import annotations

from ..poly.codec import (
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


def encode_folded_ddg(ddg: FoldedDDG) -> dict:
    """Serialize a folded DDG (insertion order preserved)."""
    return {
        "statements": [
            _encode_statement(fs) for fs in ddg.statements.values()
        ],
        "deps": [_encode_dep(fd) for fd in ddg.deps.values()],
    }
