"""Per-function folded-DDG regions: the stored form of a folded DDG.

The stage-2 (``ddg-``) artifact stores its folded DDG exactly once,
carved into one region per function, so a warm hit can rebuild the
whole DDG and an incremental run can reuse the untouched functions'
slices from the same payload.  Identities are stored
*position-independently*: statements carry their function-local
ordinal (canonical traversal order, see
:func:`repro.isa.fingerprint.function_uid_ordinals`) and their interned
context tuple; dependence endpoints carry ``(func, ordinal, context)``
references.  Re-mapping onto a re-numbered program is then pure
bookkeeping (:mod:`.stitch`), with no dependence on how the baseline
frontend happened to number instructions.

Dependences are owned by their *destination* statement's function --
the side whose execution discovers the dependence -- so stitching a
frontier's fresh deps with reused regions never double-counts.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..folding.codec import (
    _decode_dep,
    _decode_statement,
    _encode_dep,
    _encode_statement,
)
from ..folding.folder import FoldedDDG
from ..isa.fingerprint import function_uid_ordinals
from ..isa.program import Program

#: bump on any change to the region payload layout (regions travel
#: inside stage-2 artifacts, so a bump also needs STORE_FORMAT_VERSION)
REGION_FORMAT_VERSION = 1

# re-exported for the stitcher (shared single point of codec truth)
decode_statement = _decode_statement
decode_dep = _decode_dep


def uid_to_ordinal(program: Program) -> Dict[int, Tuple[str, int]]:
    """Global uid -> (function, local ordinal) over a whole program."""
    out: Dict[int, Tuple[str, int]] = {}
    for fname, fn in program.functions.items():
        for uid, o in function_uid_ordinals(fn).items():
            out[uid] = (fname, o)
    return out


def _endpoint_ref(
    key, folded: FoldedDDG, ord_of: Dict[int, Tuple[str, int]]
) -> dict:
    func, o = ord_of[key[0]]
    stmt = folded.statements[key].stmt
    return {
        "func": func,
        "ord": o,
        "context": [list(elem) for elem in stmt.context],
    }


def encode_regions(program: Program, folded: FoldedDDG) -> Dict[str, dict]:
    """Carve one folded DDG into per-function region payloads.

    ``folded`` must be canonically ordered (every finalize path is), so
    the per-region statement/dep lists are deterministic for a given
    folded set.
    """
    ord_of = uid_to_ordinal(program)
    regions: Dict[str, dict] = {
        fname: {
            "format": REGION_FORMAT_VERSION,
            "func": fname,
            "statements": [],
            "deps": [],
        }
        for fname in program.functions
    }
    for key, fs in folded.statements.items():
        func, o = ord_of[key[0]]
        entry = _encode_statement(fs)
        entry["ord"] = o
        regions[func]["statements"].append(entry)
    for dkey, fd in folded.deps.items():
        dfunc, _ = ord_of[dkey.dst[0]]
        entry = _encode_dep(fd)
        entry["src_ref"] = _endpoint_ref(dkey.src, folded, ord_of)
        entry["dst_ref"] = _endpoint_ref(dkey.dst, folded, ord_of)
        regions[dfunc]["deps"].append(entry)
    return regions


def region_ok(payload: object) -> bool:
    """Structural sanity of one (possibly store-loaded) region payload."""
    return (
        isinstance(payload, dict)
        and payload.get("format") == REGION_FORMAT_VERSION
        and isinstance(payload.get("statements"), list)
        and isinstance(payload.get("deps"), list)
    )
