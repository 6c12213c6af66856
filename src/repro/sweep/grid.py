"""Sweep grids: declared input points in one canonical order.

A sweep **point** is a full set of ``param=value`` bindings for one
registry workload.  Everything downstream -- the merge, the ``swp-``
model key, the feedback documents -- consumes points in *canonical*
form: bindings as sorted ``(name, value)`` tuples, the point list
deduplicated and sorted.  That makes the merged model a pure function
of the point *set*: submitting the same grid in shuffled order (CLI or
service -- either front door) produces byte-identical output,
which the determinism tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: one canonical sweep point: sorted (param, value) bindings
Point = Tuple[Tuple[str, int], ...]


class GridError(ValueError):
    """Malformed sweep grid (unknown workload/param, bad value...)."""


def normalize_point(bindings: Mapping[str, object]) -> Point:
    """Canonical form of one binding set: sorted ``(name, int)``."""
    out = []
    for name in sorted(bindings):
        value = bindings[name]
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise GridError(
                f"binding {name!r} must be an integer, got {value!r}"
            )
        try:
            out.append((str(name), int(value)))
        except (TypeError, ValueError) as exc:
            raise GridError(
                f"binding {name!r} must be an integer, got {value!r}"
            ) from exc
    return tuple(out)


def point_bindings(point: Point) -> Dict[str, int]:
    """The plain dict a workload factory consumes."""
    return dict(point)


def canonical_points(
    points: Iterable[Mapping[str, object]],
) -> List[Point]:
    """Normalize, deduplicate, and canonically order a point list.

    Order is the sorted order of the canonical tuples -- i.e. a pure
    function of the point *set*, independent of submission order.
    """
    seen = set()
    out: List[Point] = []
    for p in points:
        if not isinstance(p, Mapping):
            raise GridError(
                f"each sweep point must be a binding object, got {p!r}"
            )
        np = normalize_point(p)
        if np not in seen:
            seen.add(np)
            out.append(np)
    out.sort()
    return out


def parse_point(text: str) -> Dict[str, int]:
    """``"rows=20,cols=12"`` -> ``{"rows": 20, "cols": 12}`` (CLI)."""
    bindings: Dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not name.strip():
            raise GridError(
                f"bad binding {part!r}; expected name=value"
            )
        try:
            bindings[name.strip()] = int(value.strip())
        except ValueError as exc:
            raise GridError(
                f"bad binding {part!r}; value must be an integer"
            ) from exc
    if not bindings:
        raise GridError(f"empty sweep point {text!r}")
    return bindings


def default_bindings(workload: str) -> Dict[str, int]:
    """All declared params of ``workload`` at their defaults."""
    from ..workloads import params_of

    return {p.name: p.default for p in params_of(workload)}


def default_grid(workload: str) -> List[Point]:
    """The workload's declared sweep: one axis varied at a time.

    For each param with a declared ``sweep`` range, emit one point per
    sweep value with every *other* param at its default.  One-axis-at-
    a-time keeps the grid linear in the declared ranges (not their
    product) and gives the classifier clean single-axis series to fit.
    """
    from ..workloads import params_of

    params = params_of(workload)
    if not params:
        raise GridError(
            f"workload {workload!r} declares no sweep params; "
            "pass explicit points"
        )
    defaults = {p.name: p.default for p in params}
    points: List[Dict[str, int]] = []
    for p in params:
        for v in p.sweep:
            bound = dict(defaults)
            bound[p.name] = int(v)
            points.append(bound)
    if not points:
        raise GridError(
            f"workload {workload!r} declares no sweep-able ranges; "
            "pass explicit points"
        )
    return canonical_points(points)


def complete_points(
    workload: str, points: Sequence[Mapping[str, object]]
) -> List[Point]:
    """Canonical points with unbound params filled from the defaults.

    Completing *before* canonicalizing means a partially-bound point
    (``rows=28``) and its fully-spelled twin dedup onto one point, and
    every point binds every declared axis -- which the classifier's
    per-axis series fitting relies on.
    """
    defaults = default_bindings(workload)
    completed = []
    for p in points:
        if not isinstance(p, Mapping):
            raise GridError(
                f"each sweep point must be a binding object, got {p!r}"
            )
        bound = dict(defaults)
        for name, value in p.items():
            if defaults and name not in defaults:
                raise GridError(
                    f"workload {workload!r} has no param {name!r}; "
                    f"declared: {', '.join(sorted(defaults)) or '(none)'}"
                )
            bound[str(name)] = value
        completed.append(bound)
    return canonical_points(completed)


def axes_of(points: Sequence[Point]) -> List[str]:
    """The axis names whose values actually vary across ``points``."""
    values: Dict[str, set] = {}
    for point in points:
        for name, value in point:
            values.setdefault(name, set()).add(value)
    return sorted(name for name, vs in values.items() if len(vs) > 1)
