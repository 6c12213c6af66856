"""Stage-level artifact payloads: what the store actually persists.

Two artifacts per (workload, options) pair:

* **stage 1** (``cp-*``): the :class:`~repro.pipeline.ControlProfile`
  -- dynamic CFGs, call graph, and run statistics; loop forests and
  the recursive-component-set are recomputed on load (they are pure
  functions of the graphs, see :mod:`repro.cfg.codec`).
* **stage 2** (``ddg-*``): the folded polyhedral DDG, stored once, as
  the per-function position-independent regions of
  :mod:`repro.incr.regions` (each a table of sets, one of maps, one
  of affine expressions and one of contexts, plus positional
  statement and dependence rows that index them); the
  Instrumentation-II metadata a warm
  :class:`~repro.pipeline.AnalysisResult` must still expose (dynamic
  instruction count, run statistics, the dynamic schedule tree for
  flame graphs); and the dependence vectors that feed the feedback
  stages, one positional row each plus one table of distinct
  rational bounds (:mod:`repro.schedule.codec`).  A warm hit rebuilds
  the whole DDG from the regions.  No part of the payload names a
  uid, so a renumbered twin of the analyzed program shares its keys
  and decodes it whole too.

Wall-clock fields are preserved verbatim: a decoded artifact reports
the profiling time it *avoided*; the fresh cost of a warm run lives in
:class:`~repro.pipeline.StageTimings`.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from ..cfg import build_loop_forest, build_recursive_component_set
from ..cfg.codec import (
    decode_callgraph,
    decode_cfgs,
    encode_callgraph,
    encode_cfgs,
)
from ..folding.folder import FoldedDDG
from ..iiv.schedule_tree import DynamicScheduleTree, DynNode
from ..isa.vm import RunStats
from ..schedule.codec import decode_dep_vectors, encode_dep_vectors
from ..schedule.deps import DepVector

# -- run statistics -----------------------------------------------------------------


def encode_run_stats(stats: RunStats) -> dict:
    return {
        "dyn_instrs": stats.dyn_instrs,
        "dyn_branches": stats.dyn_branches,
        "dyn_calls": stats.dyn_calls,
        "mem_ops": stats.mem_ops,
        "fp_ops": stats.fp_ops,
        "per_opcode": dict(stats.per_opcode),
    }


def decode_run_stats(data: dict) -> RunStats:
    return RunStats(
        dyn_instrs=int(data["dyn_instrs"]),
        dyn_branches=int(data["dyn_branches"]),
        dyn_calls=int(data["dyn_calls"]),
        mem_ops=int(data["mem_ops"]),
        fp_ops=int(data["fp_ops"]),
        per_opcode=Counter(data["per_opcode"]),
    )


# -- dynamic schedule tree ----------------------------------------------------------


def _encode_dyn_node(node: DynNode) -> dict:
    return {
        "e": node.element,
        "l": node.is_loop,
        "w": node.weight,
        "sw": node.self_weight,
        "v": node.visits,
        "c": [_encode_dyn_node(c) for c in node.children.values()],
    }


def _decode_dyn_node(data: dict) -> DynNode:
    node = DynNode(
        element=data["e"],
        is_loop=bool(data["l"]),
        weight=int(data["w"]),
        self_weight=int(data["sw"]),
        visits=int(data["v"]),
    )
    for child_data in data["c"]:
        child = _decode_dyn_node(child_data)
        node.children[child.element] = child
    return node


def encode_schedule_tree(
    tree: Optional[DynamicScheduleTree],
) -> Optional[dict]:
    if tree is None:
        return None
    return _encode_dyn_node(tree.root)


def decode_schedule_tree(
    data: Optional[dict],
) -> Optional[DynamicScheduleTree]:
    if data is None:
        return None
    tree = DynamicScheduleTree()
    tree.root = _decode_dyn_node(data)
    return tree


# -- stage 1: control profile -------------------------------------------------------


def encode_control_profile(control) -> dict:
    return {
        "cfgs": encode_cfgs(control.cfgs),
        "callgraph": encode_callgraph(control.callgraph),
        "stats": encode_run_stats(control.stats),
        "wall_seconds": control.wall_seconds,
    }


def decode_control_profile(data: dict):
    from ..pipeline import ControlProfile

    cfgs = decode_cfgs(data["cfgs"])
    callgraph = decode_callgraph(data["callgraph"])
    forests = {
        f: build_loop_forest(f, cfg.nodes, cfg.edges, cfg.entry)
        for f, cfg in cfgs.items()
    }
    rcs = build_recursive_component_set(
        callgraph.nodes, callgraph.edges, callgraph.root
    )
    return ControlProfile(
        cfgs=cfgs,
        callgraph=callgraph,
        forests=forests,
        rcs=rcs,
        stats=decode_run_stats(data["stats"]),
        wall_seconds=float(data["wall_seconds"]),
    )


# -- stage 2: folded DDG + profile meta + dependence vectors ------------------------


class CachedInstrumentation:
    """Warm-path stand-in for the :class:`~repro.ddg.builder.DDGBuilder`
    slot of a :class:`~repro.pipeline.DDGProfile`: exposes exactly the
    two attributes downstream consumers read (``instr_count`` and
    ``schedule_tree``)."""

    __slots__ = ("instr_count", "schedule_tree")

    def __init__(self, instr_count: int, schedule_tree) -> None:
        self.instr_count = instr_count
        self.schedule_tree = schedule_tree


def encode_stage2(program, folded: FoldedDDG, ddgp, dep_vectors) -> dict:
    from ..incr.regions import encode_regions, uid_to_ordinal

    ord_of = uid_to_ordinal(program)
    return {
        "regions": encode_regions(program, folded, ord_of),
        "instr_count": ddgp.builder.instr_count,
        "stats": encode_run_stats(ddgp.stats),
        "wall_seconds": ddgp.wall_seconds,
        "schedule_tree": encode_schedule_tree(ddgp.builder.schedule_tree),
        "dep_vectors": encode_dep_vectors(dep_vectors, ord_of),
    }


def decode_stage2(
    data: dict, program
) -> Tuple[FoldedDDG, object, List[DepVector]]:
    """Rebuild the folded DDG from the payload's regions (verbatim
    context ids), plus the profile metadata and dependence vectors.

    The whole payload is uid-free, so it decodes against any program
    whose functions number their instructions alike in canonical
    order: the analyzed program itself or a renumbered or
    function-reordered twin of it, which shares its store keys (both
    are warm hits).  One (function, ordinal) -> uid table serves the
    regions and the vectors.  Any inconsistency raises
    :class:`~repro.incr.IncrementalMismatch`."""
    from ..incr.stitch import IncrementalMismatch, ordinal_uids, stitch_folded
    from ..pipeline import DDGProfile

    uid_of = ordinal_uids(program)
    folded = stitch_folded(program, data["regions"], uid_of)
    ddgp = DDGProfile(
        builder=CachedInstrumentation(
            int(data["instr_count"]),
            decode_schedule_tree(data["schedule_tree"]),
        ),
        sink=None,
        stats=decode_run_stats(data["stats"]),
        wall_seconds=float(data["wall_seconds"]),
    )
    try:
        vectors = decode_dep_vectors(data["dep_vectors"], folded, uid_of)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise IncrementalMismatch(
            f"dependence vectors: {type(exc).__name__}: {exc}"
        ) from exc
    return folded, ddgp, vectors
