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
It holds only the signs and bounds; the loop paths, the common depth
and the reduction flag are read off the decoded statements by
:func:`~repro.schedule.deps.dep_vector`, as ``analyze_deps`` reads
them.  Its rational distance bounds index one table of distinct
``[num, den]`` pairs, as region rows index their value tables.
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

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..folding.folder import FoldedDDG
from .deps import DepVector, dep_vector

#: the positional layout of one stored dependence vector; ``src`` and
#: ``dst`` are ``[function, ordinal, context id]``, ``bounds`` is one
#: ``[lo, hi]`` pair per common dimension, each null (unbounded) or an
#: index into the payload's ``bounds`` table
VECTOR_FIELDS = ("src", "dst", "kind", "signs", "bounds")


def encode_dep_vectors(
    vectors: List[DepVector], ord_of: Dict[int, Tuple[str, int]]
) -> dict:
    """``{"bounds": [[num, den], ...], "rows": [row, ...]}``: one
    positional row per vector, in :data:`VECTOR_FIELDS` order, and the
    table of the distinct bounds the rows index.

    ``ord_of`` maps a uid to its (function, ordinal), as
    :func:`repro.incr.regions.uid_to_ordinal` builds it."""
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


def decode_dep_vectors(
    data: dict, ddg: FoldedDDG, uid_of: Dict[Tuple[str, int], int]
) -> List[DepVector]:
    """The vectors of ``ddg``, one per ``transform_deps()`` entry and in
    that order, whatever order they were stored in.

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
