"""Loop-nesting forests via Ramalingam's recursive characterization.

Paper section 3.1: 1. each SCC of the CFG containing a cycle is the
region of an outermost loop; 2. one entry node of each loop is
designated its *header*; 3. edges inside the loop targeting the header
are *back-edges*; 4. removing the back-edges and recursing yields the
sub-loops.  This definition (Ramalingam 2002) is what Havlak's
almost-linear algorithm computes; at profiler scale we implement the
definition directly with Tarjan SCCs, which is simpler and fast enough.

The construction handles irreducible loops (multiple entries, as loop
``L2`` in the paper's Fig. 2) by picking the entry with the smallest
reverse-post-order number as header, matching the figure's choice of
``C`` over ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

Edge = Tuple[str, str]


@dataclass
class Loop:
    """One loop of the nesting forest."""

    id: str                     # e.g. "f:L1"
    func: str
    header: str
    region: FrozenSet[str]      # all blocks of the loop (incl. nested)
    entries: FrozenSet[str]     # entry nodes of the loop's SCC
    back_edges: FrozenSet[Edge]
    depth: int = 1
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    #: discriminates CFG loops from recursive components on the
    #: ``inLoops`` stack of Algorithms 1-2
    is_cfg: bool = True

    def __repr__(self) -> str:
        return f"Loop({self.id}, header={self.header}, region={sorted(self.region)})"

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Loop):
            return NotImplemented
        return self.id == other.id


@dataclass
class LoopForest:
    """The loop-nesting forest of one function."""

    func: str
    roots: List[Loop] = field(default_factory=list)
    by_header: Dict[str, Loop] = field(default_factory=dict)
    all_loops: List[Loop] = field(default_factory=list)

    def loop_of_header(self, bb: str) -> Optional[Loop]:
        return self.by_header.get(bb)

    def innermost_containing(self, bb: str) -> Optional[Loop]:
        best: Optional[Loop] = None
        for lp in self.all_loops:
            if bb in lp.region and (best is None or lp.depth > best.depth):
                best = lp
        return best

    @property
    def max_depth(self) -> int:
        return max((lp.depth for lp in self.all_loops), default=0)


def _sccs(nodes: Set[str], edges: Set[Edge]) -> List[Set[str]]:
    """Tarjan SCC (iterative)."""
    succ: Dict[str, List[str]] = {n: [] for n in nodes}
    for (a, b) in edges:
        if a in succ and b in nodes:
            succ[a].append(b)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[Set[str]] = []
    counter = [0]

    for start in sorted(nodes):
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if not advanced:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _rpo_numbers(nodes: Set[str], edges: Set[Edge], entry: Optional[str]) -> Dict[str, int]:
    """Reverse-post-order numbering from the entry (unreached nodes last)."""
    succ: Dict[str, List[str]] = {n: [] for n in nodes}
    for (a, b) in edges:
        if a in succ and b in nodes:
            succ[a].append(b)
    for n in succ:
        succ[n].sort()
    order: List[str] = []
    seen: Set[str] = set()

    def dfs(start: str) -> None:
        stack: List[Tuple[str, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            v, i = stack[-1]
            if i < len(succ[v]):
                stack[-1] = (v, i + 1)
                w = succ[v][i]
                if w not in seen:
                    seen.add(w)
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)

    if entry is not None and entry in nodes:
        dfs(entry)
    for n in sorted(nodes):
        if n not in seen:
            dfs(n)
    order.reverse()
    return {n: i for i, n in enumerate(order)}


def build_loop_forest(
    func: str,
    nodes: Iterable[str],
    edges: Iterable[Edge],
    entry: Optional[str],
) -> LoopForest:
    """Build the loop-nesting forest of one (dynamic) CFG."""
    nodes = set(nodes)
    edges = {(a, b) for (a, b) in edges if a in nodes and b in nodes}
    rpo = _rpo_numbers(nodes, edges, entry)
    forest = LoopForest(func)
    counter = [0]

    def recurse(
        sub_nodes: Set[str],
        sub_edges: Set[Edge],
        parent: Optional[Loop],
        depth: int,
    ) -> List[Loop]:
        loops: List[Loop] = []
        for comp in _sccs(sub_nodes, sub_edges):
            internal = {(a, b) for (a, b) in sub_edges if a in comp and b in comp}
            if len(comp) == 1 and not internal:
                continue  # trivial SCC without a self-loop: not a loop
            # entry nodes: targets of edges from outside the SCC, or the
            # function entry if it lies inside
            entries = {
                b for (a, b) in edges if b in comp and a not in comp
            }
            if entry in comp:
                entries.add(entry)
            if not entries:
                # unreachable-from-outside cycle; fall back to RPO-least
                entries = {min(comp, key=lambda n: rpo.get(n, 1 << 30))}
            header = min(entries, key=lambda n: (rpo.get(n, 1 << 30), n))
            back = frozenset(
                (a, b) for (a, b) in internal if b == header
            )
            counter[0] += 1
            loop = Loop(
                id=f"{func}:L{counter[0]}",
                func=func,
                header=header,
                region=frozenset(comp),
                entries=frozenset(entries),
                back_edges=back,
                depth=depth,
                parent=parent,
            )
            loops.append(loop)
            forest.all_loops.append(loop)
            forest.by_header[header] = loop
            # recurse with back-edges removed
            inner_edges = internal - back
            loop.children = recurse(comp, inner_edges, loop, depth + 1)
        loops.sort(key=lambda l: (rpo.get(l.header, 1 << 30), l.header))
        return loops

    forest.roots = recurse(nodes, set(edges), None, 1)
    return forest
