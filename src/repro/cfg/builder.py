"""Instrumentation I: dynamic CFG and call-graph reconstruction.

POLY-PROF's first pass instruments jump/call/return instructions and
rebuilds, per function, the control-flow graph of the *executed* part
of the program, plus the whole-program call graph.  Only executed
blocks and edges appear -- an advantage the paper calls out: dead code
never reaches the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.events import CallEvent, Instrumentation, JumpEvent, ReturnEvent


@dataclass
class DynCFG:
    """Dynamically-discovered CFG of one function (executed part)."""

    func: str
    entry: Optional[str] = None
    nodes: Set[str] = field(default_factory=set)
    edges: Set[Tuple[str, str]] = field(default_factory=set)

    def successors(self, bb: str) -> List[str]:
        return sorted(dst for (src, dst) in self.edges if src == bb)


@dataclass
class DynCallGraph:
    """Dynamically-discovered call graph."""

    root: Optional[str] = None
    nodes: Set[str] = field(default_factory=set)
    #: caller -> callee edges (interprocedural CG edges)
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    #: (caller, callsite_bb, callee) triples, for call-site labelling
    call_sites: Set[Tuple[str, str, str]] = field(default_factory=set)

    def callees(self, func: str) -> List[str]:
        return sorted(dst for (src, dst) in self.edges if src == func)

    def callers(self, func: str) -> List[str]:
        return sorted(src for (src, dst) in self.edges if dst == func)


class ControlStructureBuilder(Instrumentation):
    """Observer that reconstructs CFGs + CG from the raw event stream.

    Also records the linear control-event trace when ``record_trace``
    is set (the later stages re-process it; in a production setting the
    two instrumentation passes run the program twice instead).
    """

    def __init__(self, record_trace: bool = False) -> None:
        self.cfgs: Dict[str, DynCFG] = {}
        self.callgraph = DynCallGraph()
        self.record_trace = record_trace
        self.trace: List[object] = []
        #: frame id -> (caller, callsite block), to close the
        #: call-fallthrough CFG edge when the frame returns
        self._frames: Dict[int, Tuple[Optional[str], Optional[str]]] = {}

    def _cfg(self, func: str) -> DynCFG:
        cfg = self.cfgs.get(func)
        if cfg is None:
            cfg = DynCFG(func)
            self.cfgs[func] = cfg
        return cfg

    # -- event hooks ----------------------------------------------------------

    def on_jump(self, event: JumpEvent) -> None:
        cfg = self._cfg(event.func)
        cfg.nodes.add(event.dst_bb)
        if event.src_bb is None:
            cfg.entry = event.dst_bb
        else:
            cfg.nodes.add(event.src_bb)
            cfg.edges.add((event.src_bb, event.dst_bb))
        if self.record_trace:
            self.trace.append(event)

    def on_call(self, event: CallEvent) -> None:
        cg = self.callgraph
        cg.nodes.add(event.callee)
        cfg = self._cfg(event.callee)
        cfg.nodes.add(event.dst_bb)
        if cfg.entry is None:
            cfg.entry = event.dst_bb
        if event.caller is None:
            cg.root = event.callee
        else:
            cg.nodes.add(event.caller)
            cg.edges.add((event.caller, event.callee))
            cg.call_sites.add((event.caller, event.callsite_bb, event.callee))
            # the call site terminates a block in the caller's CFG
            self._cfg(event.caller).nodes.add(event.callsite_bb)
        self._frames[event.frame_id] = (event.caller, event.callsite_bb)
        if self.record_trace:
            self.trace.append(event)

    def on_return(self, event: ReturnEvent) -> None:
        if event.caller is not None and event.dst_bb is not None:
            cfg = self._cfg(event.caller)
            cfg.nodes.add(event.dst_bb)
            # a call instruction falls through: the caller's CFG has an
            # intraprocedural edge from the call-site block to the
            # continuation block (it materializes when the call returns)
            caller, callsite = self._frames.pop(event.frame_id, (None, None))
            if caller == event.caller and callsite is not None:
                cfg.edges.add((callsite, event.dst_bb))
        if self.record_trace:
            self.trace.append(event)
