"""Loop-nest trees over the folded DDG.

Statements are grouped by *loop path* (the tuple of loop ids from
their dynamic contexts -- which freely crosses function boundaries,
this being the whole point of the dynamic IIV).  The resulting forest
is the structure on which the feedback analyses (parallelism,
permutability, tiling, fusion) run and on which region metrics are
aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..folding.folder import FoldedDDG, FoldedStatement
from .deps import DepVector, analyze_deps, loop_path


@dataclass
class NestNode:
    """One loop of the interprocedural nest forest."""

    path: Tuple[Tuple[str, ...], ...]   # context entries, outermost first
    children: Dict[str, "NestNode"] = field(default_factory=dict)
    stmts: List[FoldedStatement] = field(default_factory=list)   # exactly here
    ops_here: int = 0
    ops_total: int = 0              # including sub-loops

    # analysis results (filled by repro.schedule.analysis)
    parallel: Optional[bool] = None
    #: parallel once reduction recurrences are privatized/expanded
    parallel_reduction: Optional[bool] = None
    band_start: Optional[int] = None   # outermost dim of the permutable
                                       # band this loop belongs to
    skew_factor: Optional[int] = None  # skew (w.r.t. parent) that made
                                       # the band legal, if any

    @property
    def loop_id(self) -> str:
        """The loop id of this node (last component of its identity)."""
        return self.path[-1][-1]

    @property
    def depth(self) -> int:
        return len(self.path)

    def walk(self) -> Iterator["NestNode"]:
        yield self
        for key in sorted(self.children):
            yield from self.children[key].walk()

    def is_innermost(self) -> bool:
        return not self.children


@dataclass
class NestForest:
    """All loops of the program, with the dependence vectors."""

    roots: Dict[str, NestNode] = field(default_factory=dict)
    #: statements at depth 0 (outside any loop)
    toplevel_stmts: List[FoldedStatement] = field(default_factory=list)
    deps: List[DepVector] = field(default_factory=list)

    def walk(self) -> Iterator[NestNode]:
        for key in sorted(self.roots):
            yield from self.roots[key].walk()

    def node_at(self, path: Tuple[str, ...]) -> Optional[NestNode]:
        if not path:
            return None
        node = self.roots.get(path[0])
        for p in path[1:]:
            if node is None:
                return None
            node = node.children.get(p)
        return node

    def deps_under(self, path: Tuple[str, ...]) -> List[DepVector]:
        """Dependences whose endpoints both lie (at least) under the
        loops named by ``path`` -- i.e. sharing those loops."""
        n = len(path)
        return [
            dv
            for dv in self.deps
            if dv.common >= n
            and dv.dst_path[:n] == path
            and dv.src_path[:n] == path
        ]

    def total_ops(self) -> int:
        return sum(n.ops_total for n in (self.roots[k] for k in self.roots)) + sum(
            s.count for s in self.toplevel_stmts
        )


def build_nest_forest(
    ddg: FoldedDDG, deps: Optional[List[DepVector]] = None
) -> NestForest:
    """Group statements into the interprocedural loop-nest forest and
    attach dependence vectors.

    ``deps`` short-circuits :func:`~repro.schedule.deps.analyze_deps`
    (the one feedback pass that does polyhedral bounding, for varying
    distances only) with a precomputed vector list -- the artifact
    store persists it with the folded DDG, since it is a pure function
    of the DDG.
    """
    forest = NestForest()
    for fs in ddg.statements.values():
        path = loop_path(fs.stmt)
        if not path:
            forest.toplevel_stmts.append(fs)
            continue
        node = forest.roots.get(path[0])
        if node is None:
            node = NestNode(path=(path[0],))
            forest.roots[path[0]] = node
        for p in path[1:]:
            child = node.children.get(p)
            if child is None:
                child = NestNode(path=node.path + (p,))
                node.children[p] = child
            node = child
        node.stmts.append(fs)
        node.ops_here += fs.count

    def tally(node: NestNode) -> int:
        node.ops_total = node.ops_here + sum(
            tally(c) for c in node.children.values()
        )
        return node.ops_total

    for root in forest.roots.values():
        tally(root)
    forest.deps = analyze_deps(ddg) if deps is None else deps
    return forest
