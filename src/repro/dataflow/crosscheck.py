"""Dynamic-vs-static soundness cross-checker (``--crosscheck``).

The dynamic pipeline makes three kinds of claims a static analysis can
audit, and one kind an *independent re-execution* can audit.  This
module runs all four sanitizers over a finished
:class:`~repro.pipeline.AnalysisResult`:

1. **Recount** -- re-run Instrumentation II on the *opposite* engine
   with a trivial counting sink and compare every statement and
   dependence stream's point count against the folded DDG.  A missing
   stream is a dropped dependence, an extra one an invented
   dependence, a count mismatch a folding/batching bug.  Because the
   counting sink shares nothing with the folding machinery, agreement
   is meaningful.
2. **Dependence shape** -- every dynamic DDG edge must lie inside the
   static may-dependence relation: its endpoint uids must exist, the
   kinds must match the opcodes (flow: store->load, anti: load->store,
   output: store->store, reg: producer writes a register the consumer
   reads), and for register dependences the producer's definition site
   must statically *reach* the consumer's use (the
   :mod:`repro.dataflow` reaching-definitions fixpoint).
3. **Affine agreement** -- every access that
   :func:`~repro.staticpoly.static_affine_access_uids` proves affine
   must have folded to a piecewise-affine access function whenever the
   profile was exact (unclamped).  Statically provable but dynamically
   unfoldable means the folder lost an affine pattern.
4. **Parallel claims** -- every loop the schedule analysis marked
   parallel must have an empty loop-carried dependence slice at its
   depth.  Verified *exactly* on the folded relations by polyhedral
   emptiness (piece ∩ {outer deltas = 0} ∩ {this delta >= 1 or <= -1}),
   independently of the sign-pattern machinery that produced the claim.

All checks are read-only: a crosschecked analysis result is bit-
identical to an unchecked one (tests/integration asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ddg.graph import DDGSink, DepKey, Statement, StmtKey
from ..isa.instructions import Instr
from ..isa.program import Program
from ..poly.affine import AffineExpr
from .analyses import DefSite, build_def_use_chains

#: check identifiers, in report order
CHECKS = ("recount", "dep-shape", "affine-static", "parallel-claim")


@dataclass(frozen=True)
class Violation:
    """One soundness violation found by the cross-checker."""

    check: str      # one of CHECKS
    where: str      # stream / statement / loop the violation is at
    message: str

    def render(self) -> str:
        return f"[{self.check}] {self.where}: {self.message}"

    def as_dict(self) -> Dict[str, str]:
        return {"check": self.check, "where": self.where,
                "message": self.message}


@dataclass
class CheckOptions:
    """Which sanitizers to run (all, by default)."""

    recount: bool = True
    dep_shape: bool = True
    affine_static: bool = True
    parallel_claims: bool = True
    fuel: int = 50_000_000
    #: passive observers riding along the recount execution (the
    #: service's deadline/cancel observer, so a recount cannot outlive
    #: its job's deadline)
    extra_observers: Sequence = ()


@dataclass
class CrosscheckReport:
    """Outcome of one cross-check run."""

    workload: str
    engine: str              # engine the analysis ran on
    recount_engine: Optional[str] = None  # opposite engine, when run
    checks_run: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    #: per-check work counters (streams compared, deps checked, ...)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, check: str) -> List[Violation]:
        return [v for v in self.violations if v.check == check]

    def render(self) -> str:
        lines = [
            f"crosscheck {self.workload} (engine={self.engine}"
            + (f", recount on {self.recount_engine}" if self.recount_engine
               else "")
            + f"): {'OK' if self.ok else 'VIOLATIONS'}"
        ]
        for check in CHECKS:
            if check not in self.checks_run:
                continue
            vs = self.violations_for(check)
            lines.append(f"  {check}: {'ok' if not vs else f'{len(vs)} violation(s)'}")
            for v in vs[:10]:
                lines.append(f"    {v.where}: {v.message}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "violations": [v.as_dict() for v in self.violations],
            "stats": dict(self.stats),
        }


class CountingSink(DDGSink):
    """The minimal sink: per-stream point counts, nothing else.

    Shares no code with the folding sinks, so its counts are an
    independent witness of what Instrumentation II emitted.
    """

    def __init__(self) -> None:
        self.statements: Dict[StmtKey, Statement] = {}
        self.stmt_counts: Dict[StmtKey, int] = {}
        self.dep_counts: Dict[DepKey, int] = {}

    def declare_statement(self, stmt: Statement) -> None:
        self.statements.setdefault(stmt.key, stmt)

    def instr_point(self, key, coords, label):
        self.stmt_counts[key] = self.stmt_counts.get(key, 0) + 1

    def dep_point(self, dep, dst_coords, src_coords):
        self.dep_counts[dep] = self.dep_counts.get(dep, 0) + 1

    # batched entry points: bump by the batch, skip per-point dispatch
    def instr_points(self, coords, items):
        counts = self.stmt_counts
        for key, _label in items:
            counts[key] = counts.get(key, 0) + 1

    def dep_points(self, dst_coords, items):
        counts = self.dep_counts
        for dep, _src in items:
            counts[dep] = counts.get(dep, 0) + 1


def opposite_engine(engine: str) -> str:
    return "reference" if engine == "fast" else "fast"


def run_crosscheck(result, options: Optional[CheckOptions] = None):
    """Run the sanitizers over a finished analysis result."""
    opts = options or CheckOptions()
    report = CrosscheckReport(
        workload=result.spec.name,
        engine=getattr(result, "engine", "fast"),
    )
    if opts.recount:
        report.checks_run.append("recount")
        _check_recount(result, opts, report)
    if opts.dep_shape:
        report.checks_run.append("dep-shape")
        _check_dep_shape(result, report)
    if opts.affine_static:
        report.checks_run.append("affine-static")
        _check_affine_static(result, report)
    if opts.parallel_claims:
        report.checks_run.append("parallel-claim")
        _check_parallel_claims(result, report)
    return report


# -- check 1: independent recount on the opposite engine ---------------------------


def _check_recount(result, opts: CheckOptions, report: CrosscheckReport) -> None:
    from ..pipeline import profile_ddg

    engine = opposite_engine(report.engine)
    report.recount_engine = engine
    sink = CountingSink()
    profile_ddg(
        result.spec,
        result.control,
        sink=sink,
        track_anti_output=getattr(result, "track_anti_output", True),
        build_schedule_tree=False,
        fuel=opts.fuel,
        engine=engine,
        extra_observers=opts.extra_observers,
    )
    folded = result.folded

    def stmt_name(key: StmtKey) -> str:
        return f"stmt u{key[0]}/c{key[1]}"

    def dep_name(dep: DepKey) -> str:
        return (
            f"dep {dep.kind} u{dep.src[0]}/c{dep.src[1]}"
            f" -> u{dep.dst[0]}/c{dep.dst[1]}"
        )

    report.stats["recount_statements"] = len(sink.stmt_counts)
    report.stats["recount_deps"] = len(sink.dep_counts)
    for key, n in sink.stmt_counts.items():
        fs = folded.statements.get(key)
        if fs is None:
            report.violations.append(Violation(
                "recount", stmt_name(key),
                f"statement dropped by the folded DDG ({n} point(s) recounted)",
            ))
        elif fs.count != n:
            report.violations.append(Violation(
                "recount", stmt_name(key),
                f"folded count {fs.count} != recounted {n}",
            ))
    for key in folded.statements:
        if key not in sink.stmt_counts:
            report.violations.append(Violation(
                "recount", stmt_name(key),
                "folded statement never emitted by the recount run",
            ))
    for dep, n in sink.dep_counts.items():
        fd = folded.deps.get(dep)
        if fd is None:
            report.violations.append(Violation(
                "recount", dep_name(dep),
                f"dependence dropped by the folded DDG ({n} point(s) recounted)",
            ))
        elif fd.count != n:
            report.violations.append(Violation(
                "recount", dep_name(dep),
                f"folded count {fd.count} != recounted {n}",
            ))
    for dep in folded.deps:
        if dep not in sink.dep_counts:
            report.violations.append(Violation(
                "recount", dep_name(dep),
                "folded dependence never emitted by the recount run "
                "(invented edge)",
            ))


# -- check 2: every dynamic edge inside the static may-dependence relation ---------


def _binding_edges(program: Program) -> Dict[Tuple[str, str], Set[Tuple[str, str]]]:
    """Static register-binding graph: (func, reg) -> (func, reg) edges
    along which a value crosses a frame boundary (caller argument to
    callee parameter, callee return value to caller destination).
    This is how the DDG builder threads register defs across calls, so
    the static may-dependence relation for registers is reachability
    in this graph plus intra-function def->use reach."""
    from ..isa.instructions import Call as CallT, Return as ReturnT

    edges: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    returns: Dict[str, Set[str]] = {}
    for fn in program.functions.values():
        for bb in fn.blocks.values():
            term = bb.terminator
            if isinstance(term, ReturnT) and isinstance(term.value, str):
                returns.setdefault(fn.name, set()).add(term.value)
    for fn in program.functions.values():
        for bb in fn.blocks.values():
            term = bb.terminator
            if not isinstance(term, CallT):
                continue
            callee = program.functions.get(term.callee)
            if callee is None:
                continue
            for param, arg in zip(callee.params, term.args):
                if isinstance(arg, str):
                    edges.setdefault((fn.name, arg), set()).add(
                        (callee.name, param)
                    )
            if term.dest is not None:
                for v in returns.get(callee.name, ()):
                    edges.setdefault((callee.name, v), set()).add(
                        (fn.name, term.dest)
                    )
    return edges


def _check_dep_shape(result, report: CrosscheckReport) -> None:
    program: Program = result.spec.program
    instr_of: Dict[int, Tuple[str, Instr]] = {}
    for fn, _bb, ins in program.all_instrs():
        instr_of[ins.uid] = (fn.name, ins)

    # per-function static def->use reachability for register deps
    chains_cache: Dict[str, object] = {}
    binding = _binding_edges(program)

    def rd_reaches(func: str, src: Instr, dst: Instr) -> bool:
        chains = chains_cache.get(func)
        if chains is None:
            chains = build_def_use_chains(program.functions[func])
            chains_cache[func] = chains
        site = DefSite("instr", src.dest, src.uid)
        return any(
            u.uid == dst.uid and u.reg == src.dest
            for u in chains.uses_of.get(site, ())
        )

    def binding_reaches(src_fn: str, src: Instr, dst_fn: str, dst: Instr) -> bool:
        """May the value cross frames from (src_fn, src.dest) to a
        register ``dst`` reads?  Reachability over the binding graph."""
        targets = {(dst_fn, r) for r in dst.reg_reads()}
        start = (src_fn, src.dest)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in binding.get(node, ()):
                if nxt in targets:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def reg_dep_reaches(src_fn: str, src: Instr, dst_fn: str, dst: Instr) -> bool:
        if src_fn == dst_fn and rd_reaches(src_fn, src, dst):
            return True
        # recursion and cross-function deps go through call bindings
        return binding_reaches(src_fn, src, dst_fn, dst)

    n = 0
    for dep in result.folded.deps.values():
        n += 1
        src_uid, dst_uid = dep.key.src[0], dep.key.dst[0]
        where = f"dep {dep.key.kind} u{src_uid} -> u{dst_uid}"
        if src_uid not in instr_of or dst_uid not in instr_of:
            missing = src_uid if src_uid not in instr_of else dst_uid
            report.violations.append(Violation(
                "dep-shape", where,
                f"endpoint uid {missing} does not exist in the program",
            ))
            continue
        src_fn, src = instr_of[src_uid]
        dst_fn, dst = instr_of[dst_uid]
        kind = dep.key.kind
        if kind == "flow" and not (src.is_store and dst.is_load):
            report.violations.append(Violation(
                "dep-shape", where,
                f"flow dependence endpoints are {src.opcode}/{dst.opcode}, "
                "expected store -> load",
            ))
        elif kind == "anti" and not (src.is_load and dst.is_store):
            report.violations.append(Violation(
                "dep-shape", where,
                f"anti dependence endpoints are {src.opcode}/{dst.opcode}, "
                "expected load -> store",
            ))
        elif kind == "output" and not (src.is_store and dst.is_store):
            report.violations.append(Violation(
                "dep-shape", where,
                f"output dependence endpoints are {src.opcode}/{dst.opcode}, "
                "expected store -> store",
            ))
        elif kind == "reg":
            if src.dest is None:
                report.violations.append(Violation(
                    "dep-shape", where,
                    f"register dependence from {src.opcode}, which defines "
                    "no register",
                ))
            elif not reg_dep_reaches(src_fn, src, dst_fn, dst):
                report.violations.append(Violation(
                    "dep-shape", where,
                    f"definition of {src.dest!r} at u{src_uid} ({src_fn}) "
                    f"does not statically reach any register u{dst_uid} "
                    f"({dst_fn}) reads -- outside the may-dependence "
                    "relation",
                ))
    report.stats["deps_shape_checked"] = n


# -- check 3: statically affine accesses must fold affine --------------------------


def _check_affine_static(result, report: CrosscheckReport) -> None:
    from ..staticpoly import static_affine_access_uids

    affine_uids = static_affine_access_uids(result.spec.program)
    checked = 0
    for fs in result.folded.statements.values():
        if fs.stmt.uid not in affine_uids:
            continue
        checked += 1
        if not fs.exact:
            continue  # clamped / over-approximated: nothing provable
        if fs.had_label and not fs.label_affine:
            report.violations.append(Violation(
                "affine-static",
                f"stmt u{fs.stmt.uid}/c{fs.key[1]} ({fs.stmt.instr.opcode})",
                "statically affine access did not fold to an affine "
                "access function",
            ))
    report.stats["affine_sites_checked"] = checked


# -- check 4: parallel claims verified by polyhedral emptiness ---------------------

#: recomputed here (not imported from schedule.deps) so the reduction
#: discount is independent of the machinery under audit
_ASSOCIATIVE = frozenset("add mul fadd fmul fmin fmax and or xor".split())


def _is_reduction_dep(result, dep) -> bool:
    if dep.key.kind != "reg" or dep.key.src != dep.key.dst:
        return False
    stmt = result.folded.statements[dep.key.dst].stmt
    return stmt.instr.opcode in _ASSOCIATIVE


def _carried_at_level(dep, level: int) -> Optional[bool]:
    """Can this folded dependence be carried exactly at ``level``?

    Exact polyhedral emptiness over the folded relation: a piece
    restricted to zero outer deltas and a nonzero delta at ``level``.
    Returns None when the relation did not fold (undecidable here).
    """
    d = dep.dst_depth

    def delta_row(j: int, fn_j) -> Tuple[int, ...]:
        e = AffineExpr.var(j, d) - fn_j
        if not e.is_integral():
            # clearing the (positive) denominator preserves the sign
            e = AffineExpr(e.coeffs, e.const, 1)
        return e.as_row()

    # per piece: the polyhedron, the *known* outer delta rows (unknown
    # components are simply unconstrained -- an over-approximation, so
    # an empty intersection still soundly refutes carriage), and the
    # delta row at ``level`` (None when that component is unknown)
    pieces: List[
        Tuple[object, List[Tuple[int, ...]], Optional[Tuple[int, ...]]]
    ] = []
    if dep.relation is not None:
        for poly, fn in dep.relation.pieces:
            outer = [delta_row(j, fn[j]) for j in range(level)]
            pieces.append((poly, outer, delta_row(level, fn[level])))
    elif dep.partial_src is not None:
        exprs = dep.partial_src
        outer = [
            delta_row(j, exprs[j])
            for j in range(level)
            if j < len(exprs) and exprs[j] is not None
        ]
        lrow = (
            delta_row(level, exprs[level])
            if level < len(exprs) and exprs[level] is not None
            else None
        )
        for poly in dep.domain.pieces:
            pieces.append((poly, outer, lrow))
    else:
        return None

    undecided = False
    for poly, outer_rows, lrow in pieces:
        constrained = poly
        for row in outer_rows:
            constrained = constrained.add_constraint(row, is_eq=True)
        if constrained.is_empty():
            continue  # some outer delta is always nonzero: not carried here
        if lrow is None:
            undecided = True  # outer zeros possible, level delta unknown
            continue
        coeffs, k = lrow[:-1], lrow[-1]
        pos = constrained.add_constraint(coeffs + (k - 1,))      # delta >= 1
        if not pos.is_empty():
            return True
        neg_coeffs = tuple(-c for c in coeffs)
        neg = constrained.add_constraint(neg_coeffs + (-k - 1,))  # delta <= -1
        if not neg.is_empty():
            return True
    return None if undecided else False


def _check_parallel_claims(result, report: CrosscheckReport) -> None:
    forest = result.forest
    claims = 0
    for node in forest.walk():
        if not (node.parallel or node.parallel_reduction):
            continue
        claims += 1
        level = node.depth - 1
        where = "loop " + "/".join(p[-1] for p in node.path)
        for dv in forest.deps_under(node.path):
            reduction_only = not node.parallel
            if reduction_only and _is_reduction_dep(result, dv.dep):
                continue
            carried = _carried_at_level(dv.dep, level)
            kind = dv.dep.key.kind
            dep_desc = (
                f"{kind} u{dv.dep.key.src[0]} -> u{dv.dep.key.dst[0]}"
            )
            claim = "parallel" if node.parallel else "parallel-reduction"
            if carried is True:
                report.violations.append(Violation(
                    "parallel-claim", where,
                    f"claimed {claim} but dependence {dep_desc} is carried "
                    f"at depth {level + 1}",
                ))
            elif carried is None:
                report.violations.append(Violation(
                    "parallel-claim", where,
                    f"claimed {claim} but dependence {dep_desc} has no "
                    f"affine relation to justify it",
                ))
    report.stats["parallel_claims_checked"] = claims
