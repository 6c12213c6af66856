"""Sweep-aware parallelism verdicts.

A single-run parallelism claim (:mod:`repro.schedule.analysis` found
no loop-carried dependence at that depth) is only as good as its
input.  Across a sweep, each loop's claim gets a **confidence**:

* ``all-runs`` -- the loop was present and parallel in *every* run,
  and every statement/dependence under it is ``input-invariant``: the
  verdict holds for each profiled input, on identical dependence
  structure.  This is the strongest claim dynamic analysis can make,
  and it is **refused** whenever any run contradicts it.
* ``parameterized`` -- present and parallel in every run, but some
  constraint constants scale with a sweep axis (``shape-scaling``):
  the claim holds across the sweep *as a symbolic family* -- valid
  for the parameterized domain, pending the usual single-input caveat
  for shapes outside the swept range.
* ``single-run`` -- the claim rests on a strict subset of the runs:
  the loop (or a dependence under it) is structurally present in some
  runs only, or a dependence moves in a way no sweep axis explains
  (``input-dependent``).
* ``refused`` -- some run where the loop executed found it *not*
  parallel: no parallelism is claimed at all, whatever the other runs
  said.  (This is the tamper-test demotion path: one divergent run
  must kill the claim.)
"""

from __future__ import annotations

from typing import List

from .classify import INPUT_DEPENDENT, SHAPE_SCALING
from .merge import MergedModel, NestPath, RunProfile, stmt_loop_path

ALL_RUNS = "all-runs"
PARAMETERIZED = "parameterized"
SINGLE_RUN = "single-run"
REFUSED = "refused"


def nest_name(path: NestPath) -> str:
    """Human name of a loop path (matches the report renderer)."""
    return " / ".join(elem[-1] for elem in path)


def _confidence(
    present: List[bool], classifications: List[str]
) -> str:
    if not all(present):
        return SINGLE_RUN
    if any(c == INPUT_DEPENDENT for c in classifications):
        return SINGLE_RUN
    if any(c == SHAPE_SCALING for c in classifications):
        return PARAMETERIZED
    return ALL_RUNS


def sweep_verdicts(
    profiles: List[RunProfile], model: MergedModel
) -> List[dict]:
    """One verdict row per loop seen anywhere in the sweep.

    Rows are sorted by loop path (canonical); the feedback layer
    re-sorts by ops for human display.  ``parallel`` is the sweep-wide
    claim: True only when every run that executed the loop found it
    parallel.  ``confidence`` qualifies a True claim and is
    ``refused`` for a False one.
    """
    paths = sorted(
        {path for p in profiles for path in p.nests}
    )
    # statement/dependence classifications indexed by loop path prefix
    rows: List[dict] = []
    for path in paths:
        n = len(path)
        infos = [p.nests.get(path) for p in profiles]
        present = [i is not None for i in infos]
        executed = [i for i in infos if i is not None]
        parallel = all(i["parallel"] for i in executed)
        reduction = all(
            i["parallel"] or i["parallel_reduction"] for i in executed
        )
        relevant: List[str] = []
        for ident, entity in model.statements.items():
            if stmt_loop_path(ident)[:n] == path:
                relevant.append(entity.classification)
        for ident, entity in model.deps.items():
            src, dst = ident[0], ident[1]
            if (
                stmt_loop_path(src)[:n] == path
                and stmt_loop_path(dst)[:n] == path
            ):
                relevant.append(entity.classification)
        if not parallel:
            confidence = REFUSED
        else:
            confidence = _confidence(present, relevant)
        rows.append(
            {
                "nest": nest_name(path),
                "path": [list(elem) for elem in path],
                "depth": n,
                "runs": len(profiles),
                "runs_present": sum(present),
                "parallel": parallel,
                "parallel_reduction": reduction,
                "confidence": confidence,
                "ops": max(
                    (i["ops"] for i in executed), default=0
                ),
            }
        )
    return rows
