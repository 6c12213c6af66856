"""Submission parsing shared by the daemon and the router.

A ``POST /v1/analyze`` body is parsed in two places: the daemon turns
it into a :class:`~repro.service.jobs.Job`, and the router
(:mod:`repro.service.router`) only needs the **content key** to pick a
replica.  Both must derive the *same* key from the same body -- the
router's whole value proposition is that identical submissions land on
the identical replica so dedup and cache locality survive sharding --
so the spec/options construction lives here, parameterized by the few
config defaults that differ per front door.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .jobs import JobOptions, derive_job_key, derive_sweep_key


class BadRequest(Exception):
    """Client error: malformed submission (HTTP 400)."""


def build_spec(body: dict) -> Tuple[object, str, bool]:
    """(spec, workload_name, inline) from a submission body.

    ``bindings`` (an object of ``param: value`` input sizes) applies
    to registry workloads only: the factory validates the names
    against the workload's declared params.
    """
    workload = body.get("workload")
    program_doc = body.get("program")
    bindings = body.get("bindings")
    if (workload is None) == (program_doc is None):
        raise BadRequest(
            "submit exactly one of 'workload' (registry name) or "
            "'program' (inline progjson document)"
        )
    if bindings is not None and not isinstance(bindings, dict):
        raise BadRequest("'bindings' must be an object of param: value")
    if workload is not None:
        from ..workloads import all_workloads

        reg = all_workloads()
        if workload not in reg:
            raise BadRequest(
                f"unknown workload {workload!r}; available: "
                + ", ".join(sorted(reg))
            )
        try:
            spec = reg[workload](**(bindings or {}))
        except (TypeError, ValueError) as exc:
            raise BadRequest(str(exc)) from exc
        return spec, workload, False
    if bindings is not None:
        raise BadRequest(
            "'bindings' applies to registry workloads only, not "
            "inline programs"
        )
    from ..isa.progjson import spec_from_documents

    try:
        spec = spec_from_documents(
            program_doc, body.get("state"), name=body.get("name")
        )
    except Exception as exc:
        raise BadRequest(f"invalid inline program: {exc}") from exc
    return spec, spec.name, True


def build_options(
    body: dict,
    default_timeout: Optional[float] = None,
    fold_jobs_cap: Optional[int] = None,
    has_store: bool = True,
) -> JobOptions:
    """A validated :class:`JobOptions` from a submission body.

    ``fold_jobs_cap`` silently clamps (never rejects): the capped
    request still computes the identical result, just with less
    parallelism.  ``has_store=False`` rejects ``baseline_fingerprint``
    the way a store-less daemon must.
    """
    if body.get("engine", "fast") != "fast":
        raise BadRequest(
            "the reference engine is no longer served; omit 'engine' "
            "or send \"fast\""
        )
    timeout = body.get("timeout", default_timeout)
    if timeout is not None:
        timeout = float(timeout)
        if timeout <= 0:
            raise BadRequest("timeout must be positive")
    clamp = body.get("clamp")
    try:
        fold_jobs = int(body.get("fold_jobs", 1))
    except (TypeError, ValueError) as exc:
        raise BadRequest("fold_jobs must be an integer") from exc
    if fold_jobs < 1:
        raise BadRequest("fold_jobs must be >= 1")
    if fold_jobs_cap is not None:
        fold_jobs = min(fold_jobs, fold_jobs_cap)
    baseline = body.get("baseline_fingerprint")
    if baseline is not None:
        if not (
            isinstance(baseline, str)
            and len(baseline) == 64
            and all(c in "0123456789abcdef" for c in baseline)
        ):
            raise BadRequest(
                "baseline_fingerprint must be a 64-hex program digest"
            )
        if not has_store:
            raise BadRequest(
                "baseline_fingerprint requires the service to run "
                "with an artifact store (cache_dir)"
            )
    return JobOptions(
        crosscheck=bool(body.get("crosscheck", False)),
        clamp=None if clamp is None else int(clamp),
        fuel=int(body.get("fuel", 50_000_000)),
        timeout=timeout,
        fold_jobs=fold_jobs,
        baseline=baseline,
    )


def sweep_points(body: dict) -> Optional[List[Dict[str, int]]]:
    """The canonical sweep points of a submission, or None.

    A ``sweep`` body field is a list of binding objects; it requires a
    registry ``workload`` (an inline program has no declared params to
    sweep).  Points are completed from the workload's param defaults,
    deduplicated, and canonically ordered
    (:func:`repro.sweep.grid.complete_points`), so the daemon's parent
    job key and the router's key agree for any submission order.  An
    empty list means "the workload's declared default grid".
    """
    sweep = body.get("sweep")
    if sweep is None:
        return None
    workload = body.get("workload")
    if workload is None:
        raise BadRequest("'sweep' requires a registry 'workload'")
    if body.get("bindings") is not None:
        raise BadRequest(
            "submit either 'sweep' (a list of binding objects) or "
            "'bindings' (one binding object), not both"
        )
    if not isinstance(sweep, list) or not all(
        isinstance(p, dict) for p in sweep
    ):
        raise BadRequest("'sweep' must be a list of binding objects")
    from ..sweep.grid import GridError, complete_points, default_grid

    try:
        if sweep:
            points = complete_points(workload, sweep)
        else:
            points = default_grid(workload)
    except GridError as exc:
        raise BadRequest(str(exc)) from exc
    return [dict(point) for point in points]


def child_body(body: dict, point: Dict[str, int]) -> dict:
    """The submission body of one sweep point: the parent body with
    the ``sweep`` list replaced by that point's ``bindings``."""
    child = {k: v for k, v in body.items() if k != "sweep"}
    child["bindings"] = dict(point)
    return child


def routing_key(body: dict) -> str:
    """The content key one submission body routes by.

    Identical to the daemon-side dedup key for the same body --
    options that the daemon would clamp or reject per-config
    (``fold_jobs``, ``baseline``) deliberately do not move the key, so
    a request clamped differently by two replicas still routes
    consistently.  A ``sweep`` submission routes by its parent
    key (derived from the sorted child keys), so a whole sweep -- the
    parent and every child it fans out -- lands on one replica and
    shares one store.  Raises :class:`BadRequest` for bodies no
    replica could accept, letting the router 400 at the edge without
    burning a forward.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    options = build_options(
        body,
        # key-neutral knobs: clamp to 1 / allow baseline so a router
        # without a store never rejects what a replica would accept
        fold_jobs_cap=1,
        has_store=True,
    )
    points = sweep_points(body)
    if points is not None:
        return derive_sweep_key(
            [
                derive_job_key(
                    build_spec(child_body(body, point))[0], options
                )
                for point in points
            ]
        )
    spec, _, _ = build_spec(body)
    return derive_job_key(spec, options)
