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
It names its dependence's endpoints position-independently, as
``[function, ordinal, context id]`` (the region rows' references), so
one stored row serves every program whose functions number their
instructions alike in canonical order.  The decoder resolves the rows
against the already-decoded :class:`~repro.folding.folder.FoldedDDG`,
so a vector and the DDG share one ``FoldedDep`` object exactly as they
do on the cold path, and returns them in the DDG's
:meth:`~repro.folding.folder.FoldedDDG.transform_deps` order, which is
the order :func:`~repro.schedule.deps.analyze_deps` computes them in.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ddg.graph import DepKey
from ..folding.folder import FoldedDDG
from ..poly.codec import decode_fraction, encode_fraction
from .deps import DepVector

#: the positional layout of one stored dependence vector; ``src`` and
#: ``dst`` are ``[function, ordinal, context id]``
VECTOR_FIELDS = (
    "src", "dst", "kind", "src_path", "dst_path", "common", "signs",
    "bounds", "is_reduction",
)


def encode_dep_vectors(
    vectors: List[DepVector], ord_of: Dict[int, Tuple[str, int]]
) -> list:
    """One positional row per vector, in :data:`VECTOR_FIELDS` order.

    ``ord_of`` maps a uid to its (function, ordinal), as
    :func:`repro.incr.regions.uid_to_ordinal` builds it."""
    rows = []
    for dv in vectors:
        key = dv.dep.key
        sfunc, so = ord_of[key.src[0]]
        dfunc, do = ord_of[key.dst[0]]
        rows.append([
            [sfunc, so, key.src[1]],
            [dfunc, do, key.dst[1]],
            key.kind,
            [list(e) for e in dv.src_path],
            [list(e) for e in dv.dst_path],
            dv.common,
            list(dv.signs),
            [
                [encode_fraction(lo), encode_fraction(hi)]
                for lo, hi in dv.bounds
            ],
            dv.is_reduction,
        ])
    return rows


def decode_dep_vectors(
    data: list, ddg: FoldedDDG, uid_of: Dict[Tuple[str, int], int]
) -> List[DepVector]:
    """The vectors of ``ddg``, one per ``transform_deps()`` entry and in
    that order, whatever order they were stored in.

    ``uid_of`` maps a (function, ordinal) to the decoding program's
    uid.  An endpoint outside the program, a row for a stream that is
    not a transformation dependence of ``ddg``, a repeated row, or a
    dependence with no row raises :class:`ValueError`."""

    def endpoint(ref) -> Tuple[int, int]:
        func, o, cid = ref
        uid = uid_of.get((func, o))
        if uid is None:
            raise ValueError(
                f"dependence vector endpoint {func!r}:{o} not in program"
            )
        return (uid, cid)

    rows: Dict[DepKey, list] = {}
    for row in data:
        key = DepKey(src=endpoint(row[0]), dst=endpoint(row[1]), kind=row[2])
        if key in rows:
            raise ValueError(f"two dependence vectors for stream {key}")
        rows[key] = row
    out: List[DepVector] = []
    for dep in ddg.transform_deps():
        row = rows.pop(dep.key, None)
        if row is None:
            raise ValueError(f"no dependence vector for stream {dep.key}")
        (
            _src, _dst, _kind, src_path, dst_path, common, signs, bounds,
            is_reduction,
        ) = row
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
    if rows:
        raise ValueError(
            f"dependence vector for unknown stream {next(iter(rows))}"
        )
    return out
