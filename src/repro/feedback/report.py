"""Human-readable feedback reports.

Renders, per region of interest, what the paper's case studies show:
the fat regions, per-loop-dimension properties (parallel, permutable,
stride-0/1 fractions), the suggested transformation sequence, and the
simplified post-transformation AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..schedule.ast_out import render_ast
from ..schedule.nest import NestForest, NestNode
from ..schedule.transform import NestPlan
from .stride import stride_scores


@dataclass
class LoopDimReport:
    """Per-dimension properties of one nest (Table 3's tuples)."""

    loop_id: str
    src_line: Optional[int]
    parallel: bool
    permutable: bool
    pct_stride01: float


@dataclass
class NestReport:
    """Feedback for one innermost nest."""

    leaf: NestNode
    dims: List[LoopDimReport]
    plan: NestPlan
    ops: int

    def simd_suggested(self) -> bool:
        return self.plan.simd

    def tile_suggested(self) -> bool:
        return self.plan.tile_dims >= 2


def loop_src_line(forest: NestForest, node: NestNode) -> Optional[int]:
    """Debug-info line of a loop: the smallest instruction line among
    the statements it (transitively) contains -- what a profiler can
    recover from DWARF."""
    lines = [
        s.stmt.instr.src_line
        for n in node.walk()
        for s in n.stmts
        if s.stmt.instr.src_line is not None
    ]
    return min(lines) if lines else None


def nest_report(
    forest: NestForest, leaf: NestNode, plan: NestPlan
) -> NestReport:
    scores = stride_scores(leaf)
    chain: List[NestNode] = []
    node: Optional[NestNode] = leaf
    while node is not None:
        chain.append(node)
        node = forest.node_at(node.path[:-1])
    chain.reverse()
    band_start = leaf.band_start if leaf.band_start is not None else leaf.depth - 1
    dims = []
    for i, n in enumerate(chain):
        dims.append(
            LoopDimReport(
                loop_id=n.loop_id,
                src_line=loop_src_line(forest, n),
                parallel=bool(n.parallel),
                permutable=i >= band_start and leaf.depth - band_start >= 2,
                pct_stride01=100.0 * (scores[i] if i < len(scores) else 0.0),
            )
        )
    return NestReport(leaf=leaf, dims=dims, plan=plan, ops=leaf.ops_total)


def render_report(
    forest: NestForest,
    plans: Sequence[NestPlan],
    title: str = "poly-prof feedback",
    top: int = 10,
) -> str:
    """The textual feedback document."""
    reports = [
        nest_report(forest, p.leaf, p)
        for p in sorted(plans, key=lambda p: -p.leaf.ops_total)[:top]
    ]
    total = forest.total_ops() or 1
    out = [f"=== {title} ===", ""]
    for r in reports:
        pct = 100.0 * r.leaf.ops_total / total
        nest_name = " / ".join(elem[-1] for elem in r.leaf.path)
        out.append(
            f"nest {nest_name}  ({r.leaf.ops_total} ops, {pct:.0f}%)"
        )
        for d in r.dims:
            line = f":{d.src_line}" if d.src_line is not None else ""
            out.append(
                f"  dim {d.loop_id}{line}: "
                f"parallel={'yes' if d.parallel else 'no'} "
                f"permutable={'yes' if d.permutable else 'no'} "
                f"stride01={d.pct_stride01:.0f}%"
            )
        if r.plan.steps:
            out.append("  suggested transformation:")
            for s in r.plan.steps:
                out.append(f"    {s.kind}: {s.detail}")
        else:
            out.append("  no transformation suggested")
        out.append("")
    out.append("--- simplified AST after transformation ---")
    out.append(render_ast(forest, list(plans)))
    return "\n".join(out)
