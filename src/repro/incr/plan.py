"""Plan one ``analyze(baseline=...)`` call: diff, then load or go cold.

:func:`plan_incremental` runs entirely statically (plus store reads)
before any execution, and decides between two modes:

* ``identical`` -- the diff is all-unchanged (uid renumbering,
  function reordering): the baseline execution is bit-identical, so
  *nothing* runs.  The baseline's stage-1 artifact and stage-2
  payload (metadata, every region and the dependence vectors, all
  uid-free) are decoded against the submitted program, so the
  feedback stage recomputes no dependence vector, and the baseline's
  ``cp-``/``ddg-`` files are copied byte for byte under the program's
  own keys instead of being re-encoded.
* ``cold`` -- the ordinary pipeline runs; ``reason`` says why: the
  program changed (``program-changed``: a body edit reaches nearly
  every executed instruction of a whole-program profile, so a cold
  run is the cheapest correct answer), the baseline is this very
  program, or its manifest or stage-2 payload is missing or corrupt.

The pipeline sets a third mode, ``warm``, when the submitted program's
own stage-2 artifact is already stored.

The plan also carries :class:`IncrementalInfo`, the machine-readable
account (mode, diff summary, regions reused) that surfaces on
:class:`~repro.pipeline.AnalysisResult`, the CLI's stderr summary,
and the service job document -- deliberately *not* in the
report/metrics documents, which stay byte-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..store import ArtifactKeys, derive_keys
from .diff import diff_manifests
from .manifest import build_manifest, manifest_ok
from .regions import region_ok


@dataclass
class IncrementalInfo:
    """What the incremental machinery did for one analyze() call."""

    baseline: str
    mode: str                    # identical | warm | cold
    reason: Optional[str] = None  # why cold / why a fallback happened
    summary: Dict[str, int] = field(default_factory=dict)
    funcs_total: int = 0
    regions_reused: int = 0

    def as_dict(self) -> dict:
        out = {
            "baseline": self.baseline,
            "mode": self.mode,
            "summary": dict(self.summary),
            "funcs_total": self.funcs_total,
            "regions_reused": self.regions_reused,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class IncrementalPlan:
    """Everything analyze() needs to serve one baseline call."""

    mode: str                             # identical | cold
    info: IncrementalInfo
    new_manifest: Optional[dict] = None
    base_keys: Optional[ArtifactKeys] = None
    #: the baseline's stage-2 payload, every region checked (identical
    #: mode)
    base_payload: Optional[dict] = None


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
    clamp: Optional[int],
) -> IncrementalPlan:
    """Static planning pass: manifest, diff, baseline payload load."""
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

    with tracer.span("incr.diff", cat="incr") as sp:
        diff = diff_manifests(base_manifest, new_manifest)
        sp.count("changed", len(diff.changed))

    info = IncrementalInfo(
        baseline=baseline,
        mode="cold",
        summary=diff.summary(),
        funcs_total=len(program.functions),
    )
    plan = IncrementalPlan(mode="cold", info=info, new_manifest=new_manifest)
    if not diff.all_unchanged:
        info.reason = "program-changed"
        return plan

    # a twin: every function's region comes out of the baseline's one
    # stage-2 payload; without a sound payload nothing is reusable
    plan.base_keys = derive_keys(
        baseline,
        keys.state_digest,
        fuel=fuel,
        clamp=clamp,
    )
    with tracer.span("incr.load", cat="incr") as sp:
        payload = store.get(plan.base_keys.stage2)
        stored = payload.get("regions") if isinstance(payload, dict) else None
        if isinstance(stored, dict) and all(
            region_ok(stored.get(f)) for f in program.functions
        ):
            plan.base_payload = payload
            plan.mode = info.mode = "identical"
            info.regions_reused = len(program.functions)
        sp.count("regions", info.regions_reused)
    if plan.base_payload is None:
        info.reason = (
            "baseline-stage2-miss" if payload is None
            else "baseline-stage2-corrupt"
        )
    return plan
