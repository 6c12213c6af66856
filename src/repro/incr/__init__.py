"""Baseline re-analysis: fingerprints, diffing, twins.

The store (:mod:`repro.store`) keys artifacts on the whole-program
fingerprint, so a program that differs from an analyzed one only in
its uid numbering or function order would be a full cold miss.  This
package extends the warm path from "identical program" to "twin
program" with two static passes:

1. **Manifest** (:mod:`.manifest`): per-function canonical
   fingerprints, per-block fingerprints and call-graph-aware
   transitive hashes, persisted as a versioned ``man-`` artifact.
2. **Differ** (:mod:`.diff`): align functions and basic blocks of a
   submitted program against a baseline manifest by fingerprint --
   unchanged / modified / added / removed (+ rename detection), purely
   static, milliseconds.

When every function is unchanged (:mod:`.plan`), the pipeline
(:func:`repro.pipeline.analyze` with ``baseline=``) executes nothing:
it decodes (:mod:`.stitch`) the per-function regions (:mod:`.regions`)
of the baseline's stage-2 artifact against the submitted program, a
folded DDG byte-identical to a cold full analysis.  Any other program
runs cold: a dependence profile comes from a whole-program execution,
so a one-function body edit reaches nearly every executed instruction
and there is nothing to reuse.
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
from .stitch import IncrementalMismatch, stitch_folded

__all__ = [
    "FunctionStatus",
    "IncrementalInfo",
    "IncrementalMismatch",
    "IncrementalPlan",
    "MANIFEST_FORMAT_VERSION",
    "REGION_FORMAT_VERSION",
    "append_sink_instr",
    "build_manifest",
    "diff_document",
    "diff_manifests",
    "edited_spec",
    "encode_regions",
    "plan_incremental",
    "renumber_uids",
    "renumbered_spec",
    "stitch_folded",
]
