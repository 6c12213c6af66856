"""Plan one incremental analysis: diff, slice, load reusable regions.

:func:`plan_incremental` runs entirely statically (plus store reads)
before any execution, and decides between three modes:

* ``identical`` -- the diff is all-unchanged (uid renumbering,
  function reordering): the baseline execution is bit-identical, so
  *nothing* runs; baseline stage-1/stage-2 metadata and every region
  artifact are reused verbatim.
* ``incremental`` -- a proper subset of functions is on the frontier:
  stage 2 re-executes with the DDG builder emitting only frontier
  functions, and the rest is stitched from ``rgn-`` artifacts.
* ``cold`` -- nothing reusable (manifest missing, frontier covers the
  whole program, baseline is this very program, ...): the ordinary
  pipeline runs; ``reason`` says why.

The plan also carries :class:`IncrementalInfo`, the machine-readable
account (mode, diff summary, frontier reasons, regions reused) that
surfaces on :class:`~repro.pipeline.AnalysisResult`, the CLI's stderr
summary, and the service job document -- deliberately *not* in the
report/metrics documents, which stay byte-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..store import ArtifactKeys, derive_keys
from .alias import AccessRoots
from .diff import ProgramDiff, diff_manifests
from .manifest import build_manifest, manifest_ok
from .regions import region_ok
from .slice import Frontier, FrontierReason, compute_frontier


@dataclass
class IncrementalInfo:
    """What the incremental machinery did for one analyze() call."""

    baseline: str
    mode: str                    # identical | incremental | cold
    reason: Optional[str] = None  # why cold / why a fallback happened
    summary: Dict[str, int] = field(default_factory=dict)
    #: frontier function -> machine-readable reasons
    frontier: Dict[str, List[dict]] = field(default_factory=dict)
    funcs_total: int = 0
    regions_reused: int = 0

    def as_dict(self) -> dict:
        out = {
            "baseline": self.baseline,
            "mode": self.mode,
            "summary": dict(self.summary),
            "frontier": {k: list(v) for k, v in sorted(self.frontier.items())},
            "funcs_total": self.funcs_total,
            "regions_reused": self.regions_reused,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class IncrementalPlan:
    """Everything analyze() needs to run one incremental call."""

    mode: str                             # identical | incremental | cold
    info: IncrementalInfo
    new_manifest: Optional[dict] = None
    diff: Optional[ProgramDiff] = None
    frontier: Optional[Frontier] = None
    #: functions the DDG builder fully instruments (incremental mode)
    emit_funcs: Optional[Set[str]] = None
    #: loaded, validated region payloads to stitch (non-frontier funcs)
    regions: Dict[str, dict] = field(default_factory=dict)
    base_keys: Optional[ArtifactKeys] = None


def _cold(
    baseline: str, reason: str, new_manifest: Optional[dict] = None
) -> IncrementalPlan:
    return IncrementalPlan(
        mode="cold",
        info=IncrementalInfo(baseline=baseline, mode="cold", reason=reason),
        new_manifest=new_manifest,
    )


def plan_incremental(
    spec,
    keys: ArtifactKeys,
    baseline: str,
    store,
    tracer,
    *,
    fuel: int,
    max_pieces: int,
    clamp: Optional[int],
    track_anti_output: bool,
    build_schedule_tree: bool,
) -> IncrementalPlan:
    """Static planning pass: manifest, diff, slice, region loads."""
    from ..store import manifest_key

    program = spec.program
    new_manifest = build_manifest(program)
    if baseline == keys.program_digest:
        # same program: the ordinary ddg- warm path already serves it
        return _cold(baseline, "baseline-equals-program", new_manifest)

    base_manifest = store.get(manifest_key(baseline))
    if not manifest_ok(base_manifest):
        return _cold(baseline, "baseline-manifest-miss", new_manifest)
    if base_manifest["digest"] != baseline:
        return _cold(baseline, "baseline-manifest-corrupt", new_manifest)

    base_keys = derive_keys(
        baseline,
        keys.state_digest,
        fuel=fuel,
        max_pieces=max_pieces,
        clamp=clamp,
        track_anti_output=track_anti_output,
        build_schedule_tree=build_schedule_tree,
    )

    with tracer.span("incr.diff", cat="incr") as sp:
        diff = diff_manifests(base_manifest, new_manifest)
        sp.count("changed", len(diff.changed))

    with tracer.span("incr.slice", cat="incr") as sp:
        roots = AccessRoots(program)
        frontier = compute_frontier(program, diff, base_manifest, roots)
        sp.count("frontier", len(frontier.funcs))
        sp.count("affected", len(frontier.affected))

    emit_funcs = set(frontier.funcs)
    reuse_funcs = [f for f in program.functions if f not in emit_funcs]

    # load region artifacts for every reusable function; misses join
    # the frontier (their data must be recomputed anyway)
    regions: Dict[str, dict] = {}
    with tracer.span("incr.load", cat="incr") as sp:
        for func in reuse_funcs:
            payload = store.get(base_keys.region(func))
            if region_ok(payload):
                regions[func] = payload
            else:
                emit_funcs.add(func)
                frontier.funcs.add(func)
                frontier.add(
                    func, FrontierReason(rule="artifact-miss")
                )
        sp.count("regions", len(regions))

    info = IncrementalInfo(
        baseline=baseline,
        mode="incremental",
        summary=diff.summary(),
        frontier={
            name: [r.as_dict() for r in frontier.reasons.get(name, [])]
            for name in sorted(frontier.funcs)
        },
        funcs_total=len(program.functions),
        regions_reused=len(regions),
    )
    plan = IncrementalPlan(
        mode="incremental",
        info=info,
        new_manifest=new_manifest,
        diff=diff,
        frontier=frontier,
        emit_funcs=emit_funcs,
        regions=regions,
        base_keys=base_keys,
    )

    if not emit_funcs and diff.all_unchanged:
        # no execution needed at all *if* the baseline stage-2 metadata
        # is also available; otherwise run stage 2 with nothing emitted
        if store.contains(base_keys.stage2):
            plan.mode = "identical"
            info.mode = "identical"
        else:
            info.reason = "baseline-stage2-meta-miss"
    elif len(regions) == 0:
        plan.mode = "cold"
        info.mode = "cold"
        info.reason = (
            "frontier-covers-program"
            if len(emit_funcs) >= len(program.functions)
            else "no-reusable-regions"
        )
    return plan
