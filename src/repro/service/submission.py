"""Submission parsing: a ``POST /v1/analyze`` body to spec and options.

The daemon turns each body into a :class:`~repro.service.jobs.Job`
whose content key (:func:`~repro.service.jobs.derive_job_key` over
:func:`build_spec` and :func:`build_options`) drives deduplication.
Every option is validated here, so a malformed body is a 400 before
any job exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .jobs import JobOptions


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


def _is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass, but ``true`` is
    not a number)."""
    return isinstance(value, int) and not isinstance(value, bool)


def build_options(
    body: dict,
    default_timeout: Optional[float] = None,
) -> JobOptions:
    """A validated :class:`JobOptions` from a submission body.

    Every option is type-checked: a mistyped value is a
    :class:`BadRequest`, never a coerced guess (``bool("false")`` is
    true) or an uncaught conversion error.  ``fold_jobs`` survives only
    as a legacy field: absent or ``1`` (the one serial fold) is
    accepted and changes nothing.  ``baseline_fingerprint`` is always
    refused: a renumbered twin is a plain warm hit, with no baseline.
    """
    if "baseline_fingerprint" in body:
        raise BadRequest(
            "baseline_fingerprint is no longer served; a renumbered or "
            "function-reordered twin of an analyzed program is a warm "
            "hit without it"
        )
    if body.get("engine", "fast") != "fast":
        raise BadRequest(
            "the reference engine is no longer served; omit 'engine' "
            "or send \"fast\""
        )
    fold_jobs = body.get("fold_jobs", 1)
    if not (_is_int(fold_jobs) and fold_jobs == 1):
        raise BadRequest(
            "parallel folding is no longer served; omit 'fold_jobs' "
            "or send 1"
        )
    timeout = body.get("timeout", default_timeout)
    if timeout is not None:
        if not (_is_int(timeout) or isinstance(timeout, float)):
            raise BadRequest("timeout must be a number of seconds")
        timeout = float(timeout)
        if timeout <= 0:
            raise BadRequest("timeout must be positive")
    clamp = body.get("clamp")
    if clamp is not None and not _is_int(clamp):
        raise BadRequest("clamp must be an integer")
    fuel = body.get("fuel", 50_000_000)
    if not _is_int(fuel):
        raise BadRequest("fuel must be an integer")
    crosscheck = body.get("crosscheck", False)
    if not isinstance(crosscheck, bool):
        raise BadRequest("crosscheck must be true or false")
    return JobOptions(
        crosscheck=crosscheck,
        clamp=clamp,
        fuel=fuel,
        timeout=timeout,
    )


def sweep_points(body: dict) -> Optional[List[Dict[str, int]]]:
    """The canonical sweep points of a submission, or None.

    A ``sweep`` body field is a list of binding objects; it requires a
    registry ``workload`` (an inline program has no declared params to
    sweep).  Points are completed from the workload's param defaults,
    deduplicated, and canonically ordered
    (:func:`repro.sweep.grid.complete_points`), so the daemon's parent
    job key is the same for any submission order.  An
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

