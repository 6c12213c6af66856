"""Plan one ``analyze(baseline=...)`` call: diff the program against
its baseline's manifest.

:func:`plan_incremental` runs entirely statically (plus one manifest
read) before any execution.  It returns the :class:`IncrementalInfo`
account (mode, diff summary) and the submitted program's own manifest,
which the pipeline stores so this analysis can serve as a later
baseline.

The plan is always ``cold``: the ordinary pipeline runs.  ``reason``
says why: the program changed (``program-changed``: a body edit
reaches nearly every executed instruction of a whole-program profile,
so a cold run is the cheapest correct answer), the baseline is this
very program, its manifest is missing or corrupt, or -- for a twin,
whose diff is all-unchanged -- the shared stage-2 artifact is not
stored (``stage2-miss``).  The pipeline turns the mode into ``warm``
when the program's stage-2 artifact is stored.  A twin (uids shifted
or permuted, functions reordered) shares its baseline's ``cp-``/
``ddg-`` keys (:mod:`repro.store.keys`), so it takes that warm path.

The account surfaces on :class:`~repro.pipeline.AnalysisResult`
only -- deliberately *not* in the report/metrics documents, which stay
byte-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..store import ArtifactKeys, manifest_key
from .diff import diff_manifests
from .manifest import build_manifest, manifest_ok


@dataclass
class IncrementalInfo:
    """What the incremental machinery did for one analyze() call."""

    baseline: str
    mode: str                    # warm | cold
    reason: Optional[str] = None  # why cold / why warm
    summary: Dict[str, int] = field(default_factory=dict)
    funcs_total: int = 0
    #: stage-2 regions decoded from the store: every function on a
    #: warm hit, else 0
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


def plan_incremental(
    spec,
    keys: ArtifactKeys,
    baseline: str,
    store,
    tracer,
) -> Tuple[IncrementalInfo, dict]:
    """Static planning pass: (account, the program's own manifest)."""
    program = spec.program
    new_manifest = build_manifest(program, keys.program_digest)
    info = IncrementalInfo(baseline=baseline, mode="cold")
    if baseline == keys.program_digest:
        # same program: the ordinary ddg- warm path already serves it
        info.reason = "baseline-equals-program"
        return info, new_manifest

    base_manifest = store.get(manifest_key(baseline))
    if not manifest_ok(base_manifest):
        info.reason = "baseline-manifest-miss"
        return info, new_manifest
    if base_manifest["digest"] != baseline:
        info.reason = "baseline-manifest-corrupt"
        return info, new_manifest

    with tracer.span("incr.diff", cat="incr") as sp:
        diff = diff_manifests(base_manifest, new_manifest)
        sp.count("changed", len(diff.changed))
    info.summary = diff.summary()
    info.funcs_total = len(program.functions)
    info.reason = "stage2-miss" if diff.all_unchanged else "program-changed"
    return info, new_manifest
