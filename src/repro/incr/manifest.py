"""The versioned program manifest: the static facts the differ reads.

One manifest per program digest (``man-`` store level), written as a
side effect of any stored analysis.  It captures, per function:

* the canonical local fingerprint (rename/renumber-invariant) and the
  per-basic-block fingerprints (:mod:`repro.isa.fingerprint`);
* the call-graph-aware transitive hash (an edit anywhere below a
  function changes its transitive hash).

A later analysis of another program diffs against the baseline
manifest alone -- the baseline program itself is never needed, so
``analyze(baseline=...)`` takes just the baseline's digest.
"""

from __future__ import annotations

from ..isa.fingerprint import (
    block_fingerprints,
    fingerprint_program,
    function_fingerprints,
    transitive_fingerprints,
)
from typing import Optional

from ..isa.program import Program

#: bump on any change to the manifest payload layout
#: v2: per function only ``local``, ``transitive`` and ``blocks``
MANIFEST_FORMAT_VERSION = 2


def build_manifest(program: Program, digest: Optional[str] = None) -> dict:
    """Compute the full static manifest of one program.

    ``digest`` is the program's :func:`fingerprint_program` when the
    caller already has it (a stored analysis's keys carry it)."""
    local = function_fingerprints(program)
    trans = transitive_fingerprints(program, local)
    functions = {
        name: {
            "local": local[name],
            "transitive": trans[name],
            "blocks": block_fingerprints(program.functions[name]),
        }
        for name in sorted(program.functions)
    }
    return {
        "format": MANIFEST_FORMAT_VERSION,
        "program": program.name,
        "main": program.main,
        "digest": digest or fingerprint_program(program),
        "functions": functions,
    }


def manifest_ok(manifest: object) -> bool:
    """Structural sanity of a (possibly store-loaded) manifest."""
    return (
        isinstance(manifest, dict)
        and manifest.get("format") == MANIFEST_FORMAT_VERSION
        and isinstance(manifest.get("functions"), dict)
        and isinstance(manifest.get("digest"), str)
    )
