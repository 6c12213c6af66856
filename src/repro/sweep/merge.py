"""Identity-aligned merge of per-run folded DDGs.

One :class:`RunProfile` is the sweep-relevant extract of a finished
:class:`~repro.pipeline.AnalysisResult`: every folded statement and
dependence re-keyed by the **position-independent identity**
``(func, ordinal, context)`` that :mod:`repro.store.stage2`
established (instruction uids are frontend numbering accidents; the
per-function canonical ordinal plus the interned loop context is
stable across runs and input shapes), the nest forest's per-loop
parallelism flags keyed by loop path, and the run's input bindings.

:func:`merge_profiles` unions the profiles: entities aligned by
identity, per-run payloads classified (:mod:`.classify`), polyhedral
domains unioned across runs, and sweep-aware verdicts attached
(:mod:`.verdict`).  The merge is a pure function of the profile *set*
-- profiles arrive in canonical point order, idents are sorted, and
every payload comparison is on canonical JSON -- which is what makes
the ``swp-`` model document byte-identical across submission orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..folding.codec import _encode_dep, _encode_statement
from ..poly.codec import decode_iset, encode_iset
from ..store.stage2 import uid_to_ordinal
from .classify import classify_payloads
from .grid import Point, axes_of

#: position-independent statement identity: (func, ordinal, context)
StmtIdent = Tuple[str, int, Tuple[Tuple[str, ...], ...]]
#: dependence identity: (src stmt, dst stmt, kind)
DepIdent = Tuple[StmtIdent, StmtIdent, str]
#: nest identity: the loop path (context entries, outermost first)
NestPath = Tuple[Tuple[str, ...], ...]


@dataclass
class RunProfile:
    """The sweep-relevant extract of one run's analysis."""

    bindings: Point
    #: canonical per-statement payloads (folding codec encoding minus
    #: the position-dependent uid/ctx_id), keyed by identity
    stmts: Dict[StmtIdent, dict]
    #: canonical per-dependence payloads (minus src/dst keys)
    deps: Dict[DepIdent, dict]
    #: per-loop analysis flags keyed by nest path
    nests: Dict[NestPath, dict]
    #: dynamic instruction count of the run
    ops: int
    #: stage-2 artifact key of the run (binds program+input+options;
    #: the ``swp-`` key derives from the sorted set of these)
    stage2_key: str


@dataclass
class MergedEntity:
    """One statement or dependence across the whole sweep."""

    classification: str
    #: scaling laws of a shape-scaling entity (``N_<axis>`` forms)
    laws: List[Dict[str, str]] = field(default_factory=list)
    #: run-aligned presence mask
    present: List[bool] = field(default_factory=list)
    #: union of the per-run polyhedral domains (encoded ISet)
    domain: Optional[dict] = None
    #: payload of the first run the entity appears in (representative;
    #: classification already proved what varies across runs)
    payload: Optional[dict] = None


@dataclass
class MergedModel:
    """The parameterized dependence model of one sweep."""

    workload: str
    points: List[Point]
    axes: List[str]
    statements: Dict[StmtIdent, MergedEntity]
    deps: Dict[DepIdent, MergedEntity]
    #: sweep-aware parallelism verdicts (:func:`.verdict.sweep_verdicts`)
    verdicts: List[dict] = field(default_factory=list)
    #: per-run stage-2 keys, point-aligned
    stage2_keys: List[str] = field(default_factory=list)

    def classification_counts(self, which: str = "deps") -> Dict[str, int]:
        entities = self.deps if which == "deps" else self.statements
        out: Dict[str, int] = {}
        for e in entities.values():
            out[e.classification] = out.get(e.classification, 0) + 1
        return dict(sorted(out.items()))


def _context_tuple(context) -> Tuple[Tuple[str, ...], ...]:
    return tuple(tuple(elem) for elem in context)


def stmt_loop_path(ident: StmtIdent) -> NestPath:
    """The loop path of a statement identity (its context minus the
    innermost entry -- mirrors :func:`repro.schedule.deps.loop_path`)."""
    return ident[2][:-1]


def profile_of(result, bindings: Point, stage2_key: str) -> RunProfile:
    """Extract the :class:`RunProfile` of one finished analysis."""
    ord_of = uid_to_ordinal(result.spec.program)
    ident_of: Dict[tuple, StmtIdent] = {}
    stmts: Dict[StmtIdent, dict] = {}
    for key, fs in result.folded.statements.items():
        func, ordinal = ord_of[key[0]]
        ident = (func, ordinal, _context_tuple(fs.stmt.context))
        payload = _encode_statement(fs)
        payload.pop("uid", None)
        payload.pop("ctx_id", None)
        ident_of[key] = ident
        stmts[ident] = payload
    deps: Dict[DepIdent, dict] = {}
    for dkey, fd in result.folded.deps.items():
        payload = _encode_dep(fd)
        payload.pop("src", None)
        payload.pop("dst", None)
        ident = (ident_of[dkey.src], ident_of[dkey.dst], dkey.kind)
        deps[ident] = payload
    nests: Dict[NestPath, dict] = {}
    for node in result.forest.walk():
        nests[_context_tuple(node.path)] = {
            "parallel": bool(node.parallel),
            "parallel_reduction": bool(node.parallel_reduction),
            "ops": int(node.ops_total),
        }
    return RunProfile(
        bindings=bindings,
        stmts=stmts,
        deps=deps,
        nests=nests,
        ops=int(result.ddg_profile.builder.instr_count),
        stage2_key=stage2_key,
    )


#: payload fields excluded from classification: pure execution tallies
#: (how *often*), not dependence structure (what depends on what, and
#: over which domain).  A dependence whose relation and domain are
#: identical across runs is input-invariant even though it naturally
#: executed more times on the bigger input.
_TALLY_FIELDS = ("count", "label_pieces")


def _classified_view(payload: Optional[dict]) -> Optional[dict]:
    if payload is None:
        return None
    return {k: v for k, v in payload.items() if k not in _TALLY_FIELDS}


def _union_domain(payloads: List[Optional[dict]]) -> Optional[dict]:
    """Union of the per-run encoded domains (run order -- canonical)."""
    merged = None
    for p in payloads:
        if p is None or p.get("domain") is None:
            continue
        dom = decode_iset(p["domain"])
        merged = dom if merged is None else merged.union(dom)
    return encode_iset(merged) if merged is not None else None


def _merge_entities(
    per_run: List[Dict],
    axis_values: Dict[str, List[int]],
) -> Dict:
    idents = sorted(set().union(*per_run)) if per_run else []
    out = {}
    for ident in idents:
        payloads = [run.get(ident) for run in per_run]
        classification, laws = classify_payloads(
            [_classified_view(p) for p in payloads], axis_values
        )
        out[ident] = MergedEntity(
            classification=classification,
            laws=laws,
            present=[p is not None for p in payloads],
            domain=_union_domain(payloads),
            payload=next(p for p in payloads if p is not None),
        )
    return out


def merge_profiles(
    workload: str, profiles: List[RunProfile]
) -> MergedModel:
    """Merge run profiles (already in canonical point order) into the
    parameterized model."""
    from .verdict import sweep_verdicts

    if not profiles:
        raise ValueError("cannot merge an empty sweep")
    points = [p.bindings for p in profiles]
    if points != sorted(points):
        raise ValueError("profiles must arrive in canonical point order")
    axes = axes_of(points)
    axis_values = {
        axis: [dict(p)[axis] for p in points] for axis in axes
    }
    statements = _merge_entities(
        [p.stmts for p in profiles], axis_values
    )
    deps = _merge_entities([p.deps for p in profiles], axis_values)
    model = MergedModel(
        workload=workload,
        points=points,
        axes=axes,
        statements=statements,
        deps=deps,
        stage2_keys=[p.stage2_key for p in profiles],
    )
    model.verdicts = sweep_verdicts(profiles, model)
    return model
