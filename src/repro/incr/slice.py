"""The dependence-frontier slicer: close the changed set statically.

Given a program diff, compute every region (function) whose cached
analysis could be invalidated by the change, over three static
dependence channels:

* **callee closure** -- an affected function's dynamic contexts, loop
  trip counts, and argument values flow *down* into everything it can
  call, so all (transitive) callees of an affected function are
  affected.  For changed/removed functions the baseline call edges
  (from the manifest) are unioned in: edges the edit *deleted* still
  invalidate the old callees' domains.
* **used return values** -- a caller of an affected function is
  affected only if some call site binds the result to a register that
  the static def-use chains (:mod:`repro.dataflow.analyses`) show is
  actually read; an ignored return value cannot flow back up.
* **may-aliased arrays** -- a function whose grounded access tokens
  (:mod:`.alias`) write-conflict with an affected function's accesses
  shares state with it; baseline tokens are unioned with fresh ones so
  accesses the edit removed still count.

The result is an explicit re-analysis frontier with machine-readable
reasons per region.  The closure is deliberately an over-approximation
-- soundness is guarded twice more downstream: the stitcher refuses
unexpected overlaps/contexts, and the tiered DDG builder detects any
dynamic dependence crossing the sliced boundary and forces a cold
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..dataflow.analyses import DefSite, build_def_use_chains
from ..isa.fingerprint import static_callees
from ..isa.instructions import Call
from ..isa.program import Program
from .alias import AccessRoots, may_conflict
from .diff import ProgramDiff


@dataclass(frozen=True)
class FrontierReason:
    """Why one region is on the re-analysis frontier."""

    rule: str            # modified | added | removed | callee-of-changed |
                         # caller-uses-result | may-alias
    via: Optional[str] = None   # the already-affected function that pulled us in
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"rule": self.rule}
        if self.via:
            out["via"] = self.via
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Frontier:
    """The sliced re-analysis frontier of one (diff, program) pair."""

    #: functions of the *new* program that must be re-instrumented
    funcs: Set[str] = field(default_factory=set)
    #: every affected name (includes removed baseline functions)
    affected: Set[str] = field(default_factory=set)
    #: per-region machine-readable reasons (first reason = discovery)
    reasons: Dict[str, List[FrontierReason]] = field(default_factory=dict)

    def add(self, name: str, reason: FrontierReason) -> bool:
        """Record a reason; True when ``name`` is newly affected."""
        self.reasons.setdefault(name, []).append(reason)
        if name in self.affected:
            return False
        self.affected.add(name)
        return True

    def as_dict(self) -> dict:
        return {
            "funcs": sorted(self.funcs),
            "reasons": {
                name: [r.as_dict() for r in rs]
                for name, rs in sorted(self.reasons.items())
                if name in self.affected
            },
        }


def _call_result_used(program: Program, caller: str, callee: str) -> bool:
    """Does any call site ``caller -> callee`` bind a result register
    that is actually read (terminator reads included)?"""
    fn = program.functions[caller]
    chains = build_def_use_chains(fn)
    for bb in fn.blocks.values():
        t = bb.terminator
        if not isinstance(t, Call) or t.callee != callee:
            continue
        if t.dest is None:
            continue
        if chains.uses_of.get(DefSite("call", t.dest, bb.name)):
            return True
    return False


def compute_frontier(
    program: Program,
    diff: ProgramDiff,
    base_manifest: dict,
    access_roots: Optional[AccessRoots] = None,
) -> Frontier:
    """Transitive closure of the changed set over the static
    dependence channels.  ``program`` is the *new* (submitted) side;
    removed baseline functions participate through the manifest only.
    """
    base_fns: dict = base_manifest["functions"]
    roots = access_roots if access_roots is not None else AccessRoots(program)
    universe = sorted(set(program.functions) | set(base_fns))

    # union call edges: fresh static edges plus baseline edges (covers
    # edges the edit deleted and edges out of removed functions)
    callees: Dict[str, Set[str]] = {name: set() for name in universe}
    callers: Dict[str, Set[str]] = {name: set() for name in universe}
    for name in universe:
        cs: Set[str] = set()
        if name in program.functions:
            cs |= static_callees(program.functions[name])
        if name in base_fns:
            cs |= set(base_fns[name]["callees"])
        for c in cs:
            if c in callees:
                callees[name].add(c)
                callers[c].add(name)

    # union access tokens: fresh grounded tokens plus baseline tokens
    reads: Dict[str, FrozenSet[str]] = {}
    writes: Dict[str, FrozenSet[str]] = {}
    for name in universe:
        r: Set[str] = set()
        w: Set[str] = set()
        if name in program.functions:
            r |= roots.reads[name]
            w |= roots.writes[name]
        if name in base_fns:
            r |= set(base_fns[name]["reads"])
            w |= set(base_fns[name]["writes"])
        reads[name] = frozenset(r)
        writes[name] = frozenset(w)

    frontier = Frontier()
    work: List[str] = []
    for name in diff.changed:
        st = diff.functions[name]
        if frontier.add(name, FrontierReason(rule=st.status)):
            work.append(name)

    while work:
        g = work.pop()
        # (a) everything g can call inherits g's contexts/arguments
        for c in sorted(callees[g]):
            if c not in frontier.affected and frontier.add(
                c, FrontierReason(rule="callee-of-changed", via=g)
            ):
                work.append(c)
        # (b) callers that consume g's return value
        for h in sorted(callers[g]):
            if h in frontier.affected or h not in program.functions:
                continue
            if g in program.functions and _call_result_used(program, h, g):
                if frontier.add(
                    h, FrontierReason(rule="caller-uses-result", via=g)
                ):
                    work.append(h)
        # (c) regions sharing a may-aliased array with g
        for f in universe:
            if f in frontier.affected or f == g:
                continue
            if may_conflict(reads[f], writes[f], reads[g], writes[g]):
                shared = sorted(
                    (writes[f] | reads[f]) & (writes[g] | reads[g])
                )
                if frontier.add(
                    f,
                    FrontierReason(
                        rule="may-alias",
                        via=g,
                        detail=",".join(shared[:4]),
                    ),
                ):
                    work.append(f)

    frontier.funcs = {
        name for name in frontier.affected if name in program.functions
    }
    return frontier
