"""The sweep driver: one workload, many inputs, one merged model.

Two phases, both store-centric:

1. **Warm** (optional, ``jobs > 1`` with a store): the sweep points
   are fanned out over the suite runner's process pool
   (:func:`repro.runner.run_suite`) against the shared
   content-addressed store, so each point's stage artifacts get
   produced in parallel.  The warm phase is purely a cache filler --
   its results are discarded.
2. **Collect**: each point is analyzed inline (in canonical point
   order) -- a warm store makes these artifact decodes -- and reduced
   to a :class:`~repro.sweep.merge.RunProfile`; the profiles merge
   into the parameterized model, which is stored under its ``swp-``
   key.

Repeated shapes are warm across sweeps too: a later sweep sharing
points with an earlier one (or with plain ``repro report`` runs) hits
the same stage-2 artifacts, which is what ``bench_sweep.py`` gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .codec import encode_sweep, sweep_key
from .grid import Point, complete_points, default_grid, point_bindings
from .merge import MergedModel, RunProfile, merge_profiles, profile_of


class SweepError(Exception):
    """A sweep point failed to analyze (the merge needs every run)."""


class _PointTask:
    """Picklable zero-arg spec factory for the warm-phase pool."""

    def __init__(self, workload: str, point: Point) -> None:
        self.workload = workload
        self.point = point
        self.__name__ = workload + "[" + ",".join(
            f"{name}={value}" for name, value in point
        ) + "]"

    def __call__(self):
        from ..workloads import all_workloads

        return all_workloads()[self.workload](**point_bindings(self.point))


@dataclass
class PointRun:
    """Bookkeeping for one analyzed sweep point."""

    point: Point
    stage2_key: str
    cache_hit: bool = False
    wall_seconds: float = 0.0
    dyn_instrs: int = 0


@dataclass
class SweepResult:
    """Everything a sweep produced."""

    workload: str
    points: List[Point]
    model: MergedModel
    #: the versioned ``swp-`` artifact payload (the bytes-source)
    payload: dict
    #: the ``swp-`` store key of the merged model
    key: str
    runs: List[PointRun] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: True when this run freshly wrote the merged model to the store
    #: (False = no store, or the ``swp-`` artifact was already there)
    stored: bool = False


def _null_tracer():
    from ..obs import Tracer

    return Tracer(enabled=False)


def run_sweep(
    workload: str,
    points: Optional[Sequence[Mapping[str, object]]] = None,
    *,
    fuel: int = 50_000_000,
    clamp: Optional[int] = None,
    crosscheck: bool = False,
    fold_jobs: int = 1,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    store=None,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    tracer=None,
    extra_observers: Sequence = (),
) -> SweepResult:
    """Profile ``workload`` over a sweep and merge the folded DDGs.

    ``points`` are input binding objects (unbound params filled from
    the registry defaults); None sweeps the workload's declared
    default grid.  ``jobs`` bounds the warm-phase process pool (None =
    cpu count; <= 1, or no store, skips the warm phase -- without a
    shared store parallel warm runs could not hand their artifacts to
    the collect phase).  Remaining options mirror
    :func:`repro.pipeline.analyze` and apply to every point.
    """
    from ..pipeline import analyze
    from ..store.keys import keys_for_spec
    from ..workloads import all_workloads

    t0 = time.perf_counter()
    reg = all_workloads()
    if workload not in reg:
        raise SweepError(
            f"unknown workload {workload!r}; available: "
            + ", ".join(sorted(reg))
        )
    grid = (
        default_grid(workload)
        if points is None
        else complete_points(workload, points)
    )
    if tracer is None:
        tracer = _null_tracer()
    if store is None and cache_dir is not None:
        from ..store import ArtifactStore

        store = ArtifactStore(cache_dir, max_bytes=cache_max_bytes)

    if store is not None and (jobs is None or jobs > 1) and len(grid) > 1:
        from ..runner import run_suite

        with tracer.span(
            "sweep.warm", cat="sweep", workload=workload, points=len(grid)
        ):
            # hand the warm pool the open sweep.warm span as trace
            # context: each point's spans (in their fork-pool worker
            # processes) parent under it, so a distributed sweep trace
            # shows the fan-out instead of disconnected forests
            warm_ctx = tracer.current_context()
            run_suite(
                [_PointTask(workload, point) for point in grid],
                jobs=jobs,
                timeout=timeout,
                fuel=fuel,
                clamp=clamp,
                cache_dir=store.root,
                cache_max_bytes=store.max_bytes,
                fold_jobs=fold_jobs,
                trace=warm_ctx.as_dict() if warm_ctx else None,
            )

    profiles: List[RunProfile] = []
    runs: List[PointRun] = []
    for point in grid:
        spec = reg[workload](**point_bindings(point))
        keys = keys_for_spec(
            spec,
            fuel=fuel,
            max_pieces=6,
            clamp=clamp,
            track_anti_output=True,
            build_schedule_tree=True,
        )
        tp = time.perf_counter()
        with tracer.span(
            "sweep.point",
            cat="sweep",
            workload=workload,
            point=_PointTask(workload, point).__name__,
        ):
            try:
                result = analyze(
                    spec,
                    fuel=fuel,
                    clamp=clamp,
                    crosscheck=crosscheck,
                    store=store,
                    extra_observers=extra_observers,
                    tracer=tracer,
                    fold_jobs=fold_jobs,
                )
            except Exception as exc:
                raise SweepError(
                    f"sweep point {point_bindings(point)} failed: {exc}"
                ) from exc
        profiles.append(profile_of(result, point, keys.stage2))
        runs.append(
            PointRun(
                point=point,
                stage2_key=keys.stage2,
                cache_hit=result.timings.cache_hit,
                wall_seconds=time.perf_counter() - tp,
                dyn_instrs=result.ddg_profile.builder.instr_count,
            )
        )

    with tracer.span(
        "sweep.merge", cat="sweep", workload=workload, runs=len(profiles)
    ):
        model = merge_profiles(workload, profiles)
        payload = encode_sweep(model)
    key = sweep_key(model.stage2_keys)
    stored = False
    if store is not None:
        with tracer.span("sweep.store", cat="sweep", key=key):
            if not store.contains(key):
                store.put(key, payload)
                stored = True
    return SweepResult(
        workload=workload,
        points=grid,
        model=model,
        payload=payload,
        key=key,
        runs=runs,
        wall_seconds=time.perf_counter() - t0,
        stored=stored,
    )
