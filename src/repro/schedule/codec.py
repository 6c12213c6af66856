"""Codec for dependence vectors (the cached feedback-stage input).

:func:`~repro.schedule.deps.analyze_deps` computes the sign pattern
and rational bounds of every dependence distance.  Uniform distances
and witnessed pieces need no projection, so only varying distances
pay for polyhedral bounding, and the stage costs a small fraction of
folding.  Its result is a pure function of the folded DDG, so the
store persists it alongside the DDG; the passes downstream (forest
analysis, planning) are always re-run.

A serialized vector references its dependence by
:class:`~repro.ddg.graph.DepKey`; the decoder resolves it against the
already-decoded :class:`~repro.folding.folder.FoldedDDG`, so a vector
and the DDG share one ``FoldedDep`` object exactly as they do on the
cold path.
"""

from __future__ import annotations

from typing import List

from ..ddg.graph import DepKey
from ..folding.folder import FoldedDDG
from ..poly.codec import decode_fraction, encode_fraction
from .deps import DepVector


def encode_dep_vectors(vectors: List[DepVector]) -> list:
    out = []
    for dv in vectors:
        out.append({
            "src": list(dv.dep.key.src),
            "dst": list(dv.dep.key.dst),
            "kind": dv.dep.key.kind,
            "src_path": [list(e) for e in dv.src_path],
            "dst_path": [list(e) for e in dv.dst_path],
            "common": dv.common,
            "signs": list(dv.signs),
            "bounds": [
                [encode_fraction(lo), encode_fraction(hi)]
                for lo, hi in dv.bounds
            ],
            "is_reduction": dv.is_reduction,
        })
    return out


def decode_dep_vectors(data: list, ddg: FoldedDDG) -> List[DepVector]:
    out: List[DepVector] = []
    for item in data:
        key = DepKey(
            src=tuple(item["src"]),
            dst=tuple(item["dst"]),
            kind=item["kind"],
        )
        dep = ddg.deps.get(key)
        if dep is None:
            raise ValueError(f"dependence vector for unknown stream {key}")
        out.append(
            DepVector(
                dep=dep,
                src_path=tuple(tuple(e) for e in item["src_path"]),
                dst_path=tuple(tuple(e) for e in item["dst_path"]),
                common=int(item["common"]),
                signs=tuple(item["signs"]),
                bounds=tuple(
                    (decode_fraction(lo), decode_fraction(hi))
                    for lo, hi in item["bounds"]
                ),
                is_reduction=bool(item["is_reduction"]),
            )
        )
    return out
