"""Baseline diffing and program edits.

The store (:mod:`repro.store`) keys its ``cp-``/``ddg-`` artifacts on
the canonical program digest, so a *twin* -- a program that differs
from an analyzed one only in its uid numbering or function order --
is an ordinary warm hit: the uid-free stage-2 payload
(:mod:`repro.store.stage2`) is decoded against the submitted program.

``analyze(baseline=...)`` adds a static account of the change, with
two passes:

1. **Manifest** (:mod:`.manifest`): per-function canonical
   fingerprints, per-block fingerprints and call-graph-aware
   transitive hashes, persisted as a versioned ``man-`` artifact.
2. **Differ** (:mod:`.diff`): align functions and basic blocks of a
   submitted program against a baseline manifest by fingerprint --
   unchanged / modified / added / removed (+ rename detection), purely
   static, milliseconds.

The account (:mod:`.plan`) changes nothing that runs: a twin is a
warm hit with or without it, and any other program runs cold -- a
dependence profile comes from a whole-program execution, so a
one-function body edit reaches nearly every executed instruction and
there is nothing to reuse.
"""

from .diff import FunctionStatus, ProgramDiff, diff_document, diff_manifests
from .edit import (
    append_sink_instr,
    edited_spec,
    renumber_uids,
    renumbered_spec,
)
from .manifest import MANIFEST_FORMAT_VERSION, build_manifest
from .plan import IncrementalInfo, plan_incremental

__all__ = [
    "FunctionStatus",
    "IncrementalInfo",
    "MANIFEST_FORMAT_VERSION",
    "append_sink_instr",
    "build_manifest",
    "diff_document",
    "diff_manifests",
    "edited_spec",
    "plan_incremental",
    "renumber_uids",
    "renumbered_spec",
]
