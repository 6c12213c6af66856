"""Static CFG view of one function.

The dynamic pipeline discovers CFGs by execution
(:mod:`repro.cfg.builder`); the dataflow framework instead needs the
*static* graph -- every block and every edge the terminators admit,
executed or not.  :class:`StaticCFG` materializes that view once per
function and precomputes the orderings the worklist solver wants
(reverse post-order for forward problems, its reverse for backward
ones) plus reachability from the entry.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..isa.instructions import Call, CondBr, Halt, Return
from ..isa.program import BasicBlock, Function


class StaticCFG:
    """Blocks, edges, and orderings of one function's static CFG."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.entry = fn.entry
        self.succs: Dict[str, Tuple[str, ...]] = {}
        self.preds: Dict[str, List[str]] = {name: [] for name in fn.blocks}
        for name, bb in fn.blocks.items():
            succ = bb.successors() if bb.terminator is not None else ()
            self.succs[name] = succ
            for s in succ:
                if s in self.preds:
                    self.preds[s].append(name)
        self.rpo: List[str] = self._rpo()
        self.rpo_index: Dict[str, int] = {b: i for i, b in enumerate(self.rpo)}
        #: blocks reachable from the entry (the solver iterates these;
        #: unreachable blocks are a lint finding, not solver input)
        self.reachable: Set[str] = set(self.rpo)

    def _rpo(self) -> List[str]:
        order: List[str] = []
        seen: Set[str] = set()
        if self.entry not in self.fn.blocks:
            return order
        stack: List[Tuple[str, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            v, i = stack[-1]
            succ = self.succs.get(v, ())
            if i < len(succ):
                stack[-1] = (v, i + 1)
                w = succ[i]
                if w not in seen and w in self.fn.blocks:
                    seen.add(w)
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
        order.reverse()
        return order

    def block(self, name: str) -> BasicBlock:
        return self.fn.blocks[name]

    def exit_blocks(self) -> List[str]:
        """Reachable blocks ending the function (Return/Halt)."""
        return [
            b
            for b in self.rpo
            if isinstance(self.fn.blocks[b].terminator, (Return, Halt))
        ]


def terminator_uses(term) -> Tuple[str, ...]:
    """Registers a terminator reads."""
    if isinstance(term, CondBr):
        return tuple(x for x in (term.a, term.b) if isinstance(x, str))
    if isinstance(term, Call):
        return tuple(a for a in term.args if isinstance(a, str))
    if isinstance(term, Return):
        return (term.value,) if isinstance(term.value, str) else ()
    return ()


def terminator_defs(term) -> Tuple[str, ...]:
    """Registers a terminator writes (a call's return-value binding;
    the value materializes in the continuation block, which is the
    call-site block's only successor, so modeling the def at block end
    is exact)."""
    if isinstance(term, Call) and term.dest is not None:
        return (term.dest,)
    return ()
