"""Stride / spatial-reuse analysis (paper %reuse and %Preuse).

Memory statements carry folded *access functions* (address as an
affine function of the canonical iterators).  An access has stride
``s`` along dimension ``d`` when its address coefficient on ``d`` is
``s``; stride-0 (invariant) and stride-|1| (unit) accesses along the
*innermost* dimension are the spatially-friendly ones.

* ``%reuse``  -- fraction of dynamic loads/stores that are stride-0/1
  along the innermost dimension of the *existing* loop order;
* ``%Preuse`` -- the maximum of that fraction over all legal loop
  permutations (what interchange could achieve), reported per region
  by :mod:`repro.feedback.metrics` from the helpers here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..folding.folder import FoldedStatement
from ..schedule.nest import NestForest, NestNode

#: strides counted as spatial reuse (stride-0 and unit stride)
GOOD_STRIDES = (0, 1, -1)


def access_stride(fs: FoldedStatement, dim: int) -> Optional[int]:
    """Address stride of a memory statement along one dimension, or
    None when the access did not fold to an affine function."""
    if fs.label_fn is None:
        return None
    addr = fs.label_fn.exprs[0]
    if not addr.is_integral():
        return None
    if dim >= len(addr.coeffs):
        return None
    return addr.coeffs[dim]


def _mem_stmts(node: NestNode, recursive: bool = True) -> List[FoldedStatement]:
    out = [s for s in node.stmts if s.stmt.instr.is_mem]
    if recursive:
        for c in node.children.values():
            out.extend(_mem_stmts(c))
    return out


def good_stride_fraction(stmts: Iterable[FoldedStatement], dim: int) -> float:
    """Dynamic-count-weighted fraction of accesses stride-0/1 on dim."""
    total = 0
    good = 0
    for fs in stmts:
        total += fs.count
        s = access_stride(fs, dim)
        if s is not None and s in GOOD_STRIDES:
            good += fs.count
    return good / total if total else 0.0


def stride_scores(leaf: NestNode) -> List[float]:
    """Per-dimension stride score of an innermost nest: score[d] is the
    good-stride fraction if dimension ``d`` were made innermost."""
    stmts = [s for s in leaf.stmts if s.stmt.instr.is_mem]
    return [good_stride_fraction(stmts, d) for d in range(leaf.depth)]


def reuse_percent(forest: NestForest) -> float:
    """%reuse: good strides along the existing innermost dimensions."""
    total = 0
    good = 0
    for node in forest.walk():
        stmts = [s for s in node.stmts if s.stmt.instr.is_mem]
        if not stmts:
            continue
        dim = node.depth - 1
        for fs in stmts:
            total += fs.count
            s = access_stride(fs, dim)
            if s is not None and s in GOOD_STRIDES:
                good += fs.count
    return 100.0 * good / total if total else 0.0
