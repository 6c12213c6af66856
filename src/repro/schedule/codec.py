"""Codec for dependence vectors (the cached feedback-stage input).

:func:`~repro.schedule.deps.analyze_deps` computes the sign pattern
and rational bounds of every dependence distance.  Uniform distances
and witnessed pieces need no projection, so only varying distances
pay for polyhedral bounding, and the stage costs a small fraction of
folding.  Its result is a pure function of the folded DDG, so the
store persists it alongside the DDG; the passes downstream (forest
analysis, planning) are always re-run.

A serialized vector is one fixed-order row (:data:`VECTOR_FIELDS`), as
the statement and dependence rows of :mod:`repro.incr.regions` are.
It references its dependence by :class:`~repro.ddg.graph.DepKey`; the
decoder resolves it against the already-decoded
:class:`~repro.folding.folder.FoldedDDG`, so a vector and the DDG
share one ``FoldedDep`` object exactly as they do on the cold path.
"""

from __future__ import annotations

from typing import List

from ..ddg.graph import DepKey
from ..folding.folder import FoldedDDG
from ..poly.codec import decode_fraction, encode_fraction
from .deps import DepVector

#: the positional layout of one stored dependence vector
VECTOR_FIELDS = (
    "src", "dst", "kind", "src_path", "dst_path", "common", "signs",
    "bounds", "is_reduction",
)


def encode_dep_vectors(vectors: List[DepVector]) -> list:
    """One positional row per vector, in :data:`VECTOR_FIELDS` order."""
    return [
        [
            list(dv.dep.key.src),
            list(dv.dep.key.dst),
            dv.dep.key.kind,
            [list(e) for e in dv.src_path],
            [list(e) for e in dv.dst_path],
            dv.common,
            list(dv.signs),
            [
                [encode_fraction(lo), encode_fraction(hi)]
                for lo, hi in dv.bounds
            ],
            dv.is_reduction,
        ]
        for dv in vectors
    ]


def decode_dep_vectors(data: list, ddg: FoldedDDG) -> List[DepVector]:
    out: List[DepVector] = []
    for (
        src, dst, kind, src_path, dst_path, common, signs, bounds,
        is_reduction,
    ) in data:
        key = DepKey(src=tuple(src), dst=tuple(dst), kind=kind)
        dep = ddg.deps.get(key)
        if dep is None:
            raise ValueError(f"dependence vector for unknown stream {key}")
        out.append(
            DepVector(
                dep=dep,
                src_path=tuple(tuple(e) for e in src_path),
                dst_path=tuple(tuple(e) for e in dst_path),
                common=int(common),
                signs=tuple(signs),
                bounds=tuple(
                    (decode_fraction(lo), decode_fraction(hi))
                    for lo, hi in bounds
                ),
                is_reduction=bool(is_reduction),
            )
        )
    return out
