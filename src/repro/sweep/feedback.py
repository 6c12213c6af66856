"""Sweep feedback documents: text for humans, JSON for machines.

The JSON document goes through the same
:func:`repro.feedback.jsonout.render_json` renderer as every other
feedback surface, and contains only sweep-deterministic fields (no
wall times, no cache flags), so ``repro sweep --format json`` and the
service's sweep-job report are byte-identical for the same workload,
points, and options -- the CI sweep job diffs exactly that.
"""

from __future__ import annotations

from typing import List

from ..feedback.jsonout import FEEDBACK_SCHEMA_VERSION
from .driver import SweepResult
from .verdict import REFUSED


def _display_verdicts(result: SweepResult) -> List[dict]:
    """Verdict rows in human priority order: hottest loops first,
    ties broken by name then depth (total order -- deterministic)."""
    return sorted(
        result.model.verdicts,
        key=lambda row: (-row["ops"], row["nest"], row["depth"]),
    )


def sweep_document(result: SweepResult) -> dict:
    """The ``sweep`` JSON feedback document."""
    return {
        "version": FEEDBACK_SCHEMA_VERSION,
        "kind": "sweep",
        "workload": result.workload,
        "engine": "fast",
        "key": result.key,
        "points": [
            [[name, value] for name, value in point]
            for point in result.points
        ],
        "axes": list(result.model.axes),
        "summary": dict(result.payload["summary"]),
        "verdicts": _display_verdicts(result),
        "model": result.payload,
    }


def _point_label(point) -> str:
    return " ".join(f"{name}={value}" for name, value in point)


def render_sweep_text(result: SweepResult, top: int = 10) -> str:
    """The textual sweep report."""
    model = result.model
    axes = ", ".join(model.axes) if model.axes else "(none)"
    out = [
        f"=== poly-prof sweep: {result.workload} ===",
        "",
        f"{len(result.points)} point(s) over axes {axes}",
        f"merged model {result.key}",
        "",
        "points:",
    ]
    for run in result.runs:
        out.append(
            f"  {_point_label(run.point)}  "
            f"{'warm' if run.cache_hit else 'cold'}  "
            f"{run.wall_seconds:.2f}s  {run.dyn_instrs} ops"
        )
    out.append("")
    for which, label in (("deps", "dependences"), ("statements", "statements")):
        counts = model.classification_counts(which)
        total = sum(counts.values())
        parts = ", ".join(f"{n} {tag}" for tag, n in counts.items())
        out.append(f"{label}: {total} merged ({parts})")
    out.append("")
    rows = _display_verdicts(result)[:top]
    name_w = max(
        [len("nest")] + [len(row["nest"]) for row in rows]
    )
    out.append(
        f"{'nest':{name_w}s} {'runs':>5s} {'parallel':>8s} "
        f"{'confidence':>13s} {'ops':>10s}"
    )
    for row in rows:
        claim = "yes" if row["parallel"] else "no"
        confidence = row["confidence"]
        if confidence == REFUSED:
            confidence = "refused"
        out.append(
            f"{row['nest']:{name_w}s} "
            f"{row['runs_present']}/{row['runs']:<3d} "
            f"{claim:>8s} {confidence:>13s} {row['ops']:>10d}"
        )
    dropped = len(model.verdicts) - len(rows)
    if dropped > 0:
        out.append(f"... {dropped} more loop(s); see --format json")
    return "\n".join(out)
