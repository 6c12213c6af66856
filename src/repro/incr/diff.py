"""The static program differ: align two program versions by fingerprint.

Functions are aligned by *name* and classified by their canonical local
fingerprints (rename/renumber-invariant, see
:func:`repro.isa.fingerprint.function_fingerprint`):

* **unchanged** -- same local fingerprint.  Covers pure uid
  re-numbering and reordering of other functions.  When every function
  is unchanged the program is a *twin* of the baseline: it shares the
  baseline's store keys and is served as a warm hit.
* **modified** -- present on both sides with different fingerprints;
  the per-block fingerprints narrow the change down to specific basic
  blocks for diagnostics.
* **added** / **removed** -- present on one side only.  A
  removed+added pair with identical local fingerprints is additionally
  flagged as a **rename** (reported as such; analyzed cold, since
  loop/context identifiers embed the function name).

Purely static -- no execution, no baseline program, just the baseline
*manifest* -- and linear in program size: milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.program import Program
from .manifest import build_manifest

_STATUSES = ("unchanged", "modified", "added", "removed")


@dataclass
class FunctionStatus:
    """One function's classification across the two versions."""

    name: str
    status: str  # unchanged | modified | added | removed
    #: blocks whose fingerprints changed / appeared / disappeared
    #: (modified functions only; block names of the *new* side, plus
    #: removed baseline block names)
    blocks_changed: List[str] = field(default_factory=list)
    #: rename pairing (added side names its baseline twin & vice versa)
    renamed_from: Optional[str] = None
    renamed_to: Optional[str] = None
    #: transitive hash still equal? (False means something reachable
    #: from here changed even if the body did not)
    subtree_clean: bool = True

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.blocks_changed:
            out["blocks_changed"] = list(self.blocks_changed)
        if self.renamed_from:
            out["renamed_from"] = self.renamed_from
        if self.renamed_to:
            out["renamed_to"] = self.renamed_to
        out["subtree_clean"] = self.subtree_clean
        return out


@dataclass
class ProgramDiff:
    """The full alignment of a submitted program vs a baseline manifest."""

    baseline_digest: str
    program_digest: str
    #: every function of either side, keyed by name
    functions: Dict[str, FunctionStatus]

    @property
    def all_unchanged(self) -> bool:
        return all(
            st.status == "unchanged" for st in self.functions.values()
        )

    @property
    def changed(self) -> List[str]:
        """Names whose analysis is definitely stale."""
        return sorted(
            name
            for name, st in self.functions.items()
            if st.status != "unchanged"
        )

    def summary(self) -> Dict[str, int]:
        out = {s: 0 for s in _STATUSES}
        renamed = 0
        for st in self.functions.values():
            out[st.status] += 1
            if st.status == "added" and st.renamed_from:
                renamed += 1
        out["renamed"] = renamed
        return out


def _blocks_changed(base_blocks: dict, new_blocks: Dict[str, str]) -> List[str]:
    out = []
    for bname in sorted(set(base_blocks) | set(new_blocks)):
        if base_blocks.get(bname) != new_blocks.get(bname):
            out.append(bname)
    return out


def diff_manifests(base: dict, new: dict) -> ProgramDiff:
    """Align ``new`` (manifest of the submitted program) against the
    ``base`` manifest, purely by fingerprint."""
    base_fns: dict = base["functions"]
    new_fns: dict = new["functions"]
    functions: Dict[str, FunctionStatus] = {}
    for name in sorted(set(base_fns) | set(new_fns)):
        b = base_fns.get(name)
        n = new_fns.get(name)
        if b is None:
            functions[name] = FunctionStatus(name=name, status="added")
        elif n is None:
            functions[name] = FunctionStatus(name=name, status="removed")
        elif b["local"] == n["local"]:
            functions[name] = FunctionStatus(
                name=name,
                status="unchanged",
                subtree_clean=b["transitive"] == n["transitive"],
            )
        else:
            functions[name] = FunctionStatus(
                name=name,
                status="modified",
                blocks_changed=_blocks_changed(b["blocks"], n["blocks"]),
                subtree_clean=False,
            )
    # rename detection: greedy pairing of removed/added twins with
    # identical canonical bodies (report-only: loop ids embed the
    # function name, so a renamed program is not a twin)
    removed_by_fp: Dict[str, List[str]] = {}
    for name, st in functions.items():
        if st.status == "removed":
            removed_by_fp.setdefault(
                base_fns[name]["local"], []
            ).append(name)
    for name in sorted(functions):
        st = functions[name]
        if st.status != "added":
            continue
        twins = removed_by_fp.get(new_fns[name]["local"])
        if twins:
            old = twins.pop(0)
            st.renamed_from = old
            functions[old].renamed_to = name
    return ProgramDiff(
        baseline_digest=base["digest"],
        program_digest=new["digest"],
        functions=functions,
    )


def diff_programs(base_program: Program, new_program: Program) -> ProgramDiff:
    """Convenience: manifest both sides, then diff."""
    return diff_manifests(
        build_manifest(base_program), build_manifest(new_program)
    )


#: schema version of the ``repro diff`` JSON document
#: v2: the classification only (no ``frontier`` section)
DIFF_SCHEMA_VERSION = 2


def diff_document(
    diff: ProgramDiff,
    baseline_name: str = "",
    program_name: str = "",
) -> dict:
    """The machine-readable ``repro diff`` output document."""
    return {
        "version": DIFF_SCHEMA_VERSION,
        "kind": "diff",
        "baseline": {
            "name": baseline_name,
            "digest": diff.baseline_digest,
        },
        "program": {"name": program_name, "digest": diff.program_digest},
        "summary": diff.summary(),
        "functions": {
            name: st.as_dict() for name, st in sorted(diff.functions.items())
        },
    }
