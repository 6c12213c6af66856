"""The versioned ``swp-`` merged-model store artifact.

Key derivation: a sweep is content-addressed by the **sorted set** of
its runs' stage-2 keys.  Each stage-2 key already binds the program,
the input state, and every pipeline option that moves artifact bytes,
so two sweeps over the same workload/points/options share one ``swp-``
key regardless of submission order -- and any change to any run's
identity moves the sweep key.

Payload: folded DDGs are bit-identical across ``--fold-jobs``
settings (pinned by the parallel-fold test suite), so the merged
model -- a pure function of the folded DDGs -- serializes identically
too.  The determinism tests byte-diff exactly this payload.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from .merge import DepIdent, MergedEntity, MergedModel, StmtIdent

#: bump on ANY change to the swp- payload layout or key derivation
SWEEP_FORMAT_VERSION = 1


def sweep_key(stage2_keys: List[str]) -> str:
    """``swp-<sha256>`` over the sorted per-run stage-2 keys."""
    raw = f"swp{SWEEP_FORMAT_VERSION}|" + "|".join(sorted(stage2_keys))
    return "swp-" + hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _stmt_ref(ident: StmtIdent) -> dict:
    func, ordinal, context = ident
    return {
        "func": func,
        "ord": ordinal,
        "context": [list(elem) for elem in context],
    }


def _entity_fields(entity: MergedEntity) -> dict:
    return {
        "classification": entity.classification,
        "laws": list(entity.laws),
        "present": list(entity.present),
        "domain": entity.domain,
        "payload": entity.payload,
    }


def encode_sweep(model: MergedModel) -> dict:
    """The ``swp-`` artifact payload (canonically ordered:
    ident-sorted entities, path-sorted verdicts)."""
    statements = []
    for ident in sorted(model.statements):
        doc = _stmt_ref(ident)
        doc.update(_entity_fields(model.statements[ident]))
        statements.append(doc)
    deps = []
    for ident in sorted(model.deps):
        src, dst, kind = ident
        doc: Dict[str, object] = {
            "src": _stmt_ref(src),
            "dst": _stmt_ref(dst),
            "kind": kind,
        }
        doc.update(_entity_fields(model.deps[ident]))
        deps.append(doc)
    return {
        "format": SWEEP_FORMAT_VERSION,
        "workload": model.workload,
        "points": [
            [[name, value] for name, value in point]
            for point in model.points
        ],
        "axes": list(model.axes),
        "statements": statements,
        "deps": deps,
        "verdicts": list(model.verdicts),
        "summary": {
            "runs": len(model.points),
            "statements": len(model.statements),
            "deps": len(model.deps),
            "dep_classifications": model.classification_counts("deps"),
            "stmt_classifications": model.classification_counts(
                "statements"
            ),
            "claims": _claim_counts(model.verdicts),
        },
    }


def _claim_counts(verdicts: List[dict]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for row in verdicts:
        out[row["confidence"]] = out.get(row["confidence"], 0) + 1
    return dict(sorted(out.items()))
