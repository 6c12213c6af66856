"""Incremental re-analysis: fingerprints, diffing, frontier slicing.

The store (:mod:`repro.store`) keys artifacts on the whole-program
fingerprint, so a one-line edit to a large program is a full cold miss.
This package extends the warm path from "identical program" to
"similar program" with three static passes:

1. **Manifest** (:mod:`.manifest`): per-function canonical
   fingerprints + call-graph-aware transitive hashes + may-alias
   access roots, persisted as a versioned ``man-`` artifact.
2. **Differ** (:mod:`.diff`): align functions and basic blocks of a
   submitted program against a baseline manifest by fingerprint --
   unchanged / modified / added / removed (+ rename detection), purely
   static, milliseconds.
3. **Slicer** (:mod:`.slice`): close the changed set over the static
   dependence channels (call edges, used return values, may-aliased
   arrays) into an explicit re-analysis *frontier* with
   machine-readable reasons per region.

The pipeline (:func:`repro.pipeline.analyze` with ``baseline=``) then
re-instruments only the frontier, reuses the per-function regions
(:mod:`.regions`) of the baseline's stage-2 artifact for everything
else, and stitches (:mod:`.stitch`) a folded DDG that is
byte-identical to a cold full analysis.
"""

from .diff import FunctionStatus, ProgramDiff, diff_document, diff_manifests
from .edit import (
    append_sink_instr,
    edited_spec,
    renumber_uids,
    renumbered_spec,
)
from .manifest import MANIFEST_FORMAT_VERSION, build_manifest
from .plan import IncrementalInfo, IncrementalPlan, plan_incremental
from .regions import REGION_FORMAT_VERSION, encode_regions
from .slice import Frontier, FrontierReason, compute_frontier
from .stitch import IncrementalMismatch, stitch_folded

__all__ = [
    "FunctionStatus",
    "Frontier",
    "FrontierReason",
    "IncrementalInfo",
    "IncrementalMismatch",
    "IncrementalPlan",
    "MANIFEST_FORMAT_VERSION",
    "REGION_FORMAT_VERSION",
    "append_sink_instr",
    "build_manifest",
    "compute_frontier",
    "diff_document",
    "diff_manifests",
    "edited_spec",
    "encode_regions",
    "plan_incremental",
    "renumber_uids",
    "renumbered_spec",
    "stitch_folded",
]
