"""Loop fusion/distribution structure (paper Table 5, columns C /
Comp. / fusion).

The paper counts, per region, the number of *components* -- outermost
loops executing more than 5% of the region's operations -- before (C)
and after (Comp.) the proposed transformation, under one of two fusion
heuristics: ``maxfuse`` (M, merge whenever legal) and ``smartfuse``
(S, merge only loops that actually share data, a balanced
fusion/distribution strategy).

Fusion legality between two sibling nests is checked on the folded
dependence relations under identity alignment: a dependence from nest
A to nest B fuses iff its distance on the (aligned) outermost
dimension is non-negative -- the consumer instance never precedes its
producer within the fused loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..poly.affine import AffineExpr
from .deps import DepVector, _distance_bounds
from .nest import NestForest, NestNode

#: a loop counts as a component above this fraction of region ops
COMPONENT_THRESHOLD = 0.05


@dataclass
class FusionResult:
    components_before: int
    components_after: int
    heuristic: str                      # 'M' or 'S'
    groups: List[List[str]]             # fused groups of root loop ids


def _cross_deps(
    forest: NestForest, a: NestNode, b: NestNode
) -> List[DepVector]:
    """Dependences between the two sibling nests (either direction).

    The nests may sit at any depth (siblings under a shared driver
    loop); membership is by full path prefix.
    """
    ka, kb = len(a.path), len(b.path)
    out = []
    for dv in forest.deps:
        sp, dp = dv.src_path, dv.dst_path
        in_a_src = sp[:ka] == a.path
        in_b_src = sp[:kb] == b.path
        in_a_dst = dp[:ka] == a.path
        in_b_dst = dp[:kb] == b.path
        if (in_a_src and in_b_dst and not in_b_src) or (
            in_b_src and in_a_dst and not in_a_src
        ):
            out.append(dv)
    return out


def _fusion_legal(
    forest: NestForest, first: NestNode, second: NestNode
) -> bool:
    """Can ``first`` and ``second`` (in this textual order) fuse?

    Every dependence flowing from ``first`` to ``second`` must have a
    non-negative outer distance under identity alignment; dependences
    from ``second`` back to ``first`` (possible through memory reuse)
    must, after fusion, still point backward in time -- which identity
    alignment cannot guarantee, so they block fusion.
    """
    axis = len(first.path) - 1  # the dimension being fused
    for dv in _cross_deps(forest, first, second):
        ka = len(first.path)
        forward = dv.src_path[:ka] == first.path
        if not forward:
            return False
        rel = dv.dep.relation
        if rel is None:
            return False
        d = dv.dep.dst_depth
        if d <= axis or dv.dep.src_depth <= axis:
            continue  # scalar endpoints: no alignment constraint
        for piece, fn in rel.pieces:
            if piece.is_empty():
                continue
            lo, _ = _distance_bounds(piece, AffineExpr.var(axis, d) - fn[axis])
            if lo is None or lo < 0:
                return False
    return True


def _shares_data(forest: NestForest, a: NestNode, b: NestNode) -> bool:
    return bool(_cross_deps(forest, a, b))


def fuse_components(
    forest: NestForest,
    roots: Optional[Sequence[NestNode]] = None,
    heuristic: str = "S",
) -> FusionResult:
    """Compute the component structure before/after fusion."""
    if roots is None:
        roots = [forest.roots[k] for k in forest.roots]
    roots = list(roots)
    total = sum(r.ops_total for r in roots) or 1

    def is_component(ops: int) -> bool:
        return ops > COMPONENT_THRESHOLD * total

    before = sum(1 for r in roots if is_component(r.ops_total))

    # greedy left-to-right fusion of consecutive nests
    groups: List[List[NestNode]] = []
    for r in roots:
        if groups:
            last = groups[-1]
            legal = all(_fusion_legal(forest, x, r) for x in last)
            if heuristic == "M":
                want = legal
            else:  # smartfuse: only fuse when data is shared
                want = legal and any(_shares_data(forest, x, r) for x in last)
            if want:
                last.append(r)
                continue
        groups.append([r])

    after = sum(
        1 for g in groups if is_component(sum(n.ops_total for n in g))
    )
    return FusionResult(
        components_before=before,
        components_after=after,
        heuristic=heuristic,
        groups=[[n.loop_id for n in g] for g in groups],
    )
