"""Store payload codecs for stage 1 and the pieces both stages share.

* **stage 1** (``cp-*``): the :class:`~repro.pipeline.ControlProfile`
  -- dynamic CFGs, call graph, and run statistics; loop forests and
  the recursive-component-set are recomputed on load (they are pure
  functions of the graphs, see :mod:`repro.cfg.codec`).
* **stage 2** (``ddg-*``): the folded DDG, its dependence vectors and
  the Instrumentation-II metadata, coded by :mod:`repro.store.stage2`
  with the run-statistics and schedule-tree codecs here.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..cfg import build_loop_forest, build_recursive_component_set
from ..cfg.codec import (
    decode_callgraph,
    decode_cfgs,
    encode_callgraph,
    encode_cfgs,
)
from ..iiv.schedule_tree import DynamicScheduleTree, DynNode
from ..isa.vm import RunStats

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
    )
