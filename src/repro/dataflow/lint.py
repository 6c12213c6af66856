"""Static linter for mini-ISA programs (``repro lint``).

Runs the dataflow analyses over every function of a
:class:`~repro.isa.program.Program` and reports defects *before* any
VM fuel is burnt.  The rule catalogue (see ``docs/INTERNALS.md`` §6):

==========================  ========  =============================================
rule                        severity  what it catches
==========================  ========  =============================================
``uninitialized-read``      error     read of a register no path defines
``maybe-uninitialized``     warning   read defined on some but not all paths
``unreachable-block``       warning   block with no static path from the entry
``dead-store``              warning   instruction result never read (``%sink``
                                      registers are exempt -- the conventional
                                      annotation for intentional synthetic work)
``type-confusion``          error/    float value into a bitwise/shift/div/mod
                            warning   opcode (error); float into other int ALU
                                      ops, or definite int register into a float
                                      op (warning)
``unknown-callee``          error     call to a function the program lacks
``call-arity``              error     call argument count != callee parameter count
``bad-relation``            error     ``CondBr`` relation outside ``RELATIONS``
``duplicate-uid``           error     instruction uid reused across the program
``infinite-loop``           error     natural loop with no exit edge out of its
                                      body (after pruning branches decided by
                                      constant propagation) and no return/halt
``div-by-zero``             error     integer div/mod whose divisor is the
                                      constant 0
``unused-call-result``      info      bound call return value never read
``unused-param``            info      function parameter never read
``dead-function``           warning   function unreachable from the entry point
                                      via the static call graph (names starting
                                      with ``_`` are exempt -- the conventional
                                      annotation for intentionally-kept helpers,
                                      mirroring the ``%sink`` register prefix)
==========================  ========  =============================================

The linter never executes code and never raises on malformed programs
-- it is usable on programs that :meth:`Program.validate` would reject
(that is the point: the tests craft invalid programs with the raw
containers and check the linter sees what validate sees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import (
    CondBr,
    FLOAT_OPS,
    INT_OPS,
    RELATIONS,
    Call,
    Halt,
    Instr,
    Return,
)
from ..isa.program import Function, Program
from .analyses import build_def_use_chains, dominators
from .cfgview import StaticCFG
from .solver import solve
from .values import (
    FLOAT,
    INT,
    ConstProp,
    TypeInference,
    _eval_const,
    branch_decided,
    instruction_type_env,
)

#: registers whose names start with this prefix are intentional sinks:
#: the dead-store rule ignores writes to them
SINK_PREFIX = "%sink"

#: functions whose names start with this prefix are intentionally kept
#: even when no call path reaches them (the function-level analogue of
#: ``%sink``): the dead-function rule ignores them
KEEP_PREFIX = "_"

#: int opcodes where operating on floats is meaningless, not just lossy
_BIT_LEVEL_OPS = frozenset("and or xor shl shr div mod".split())

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, machine-readable."""

    severity: str          # "error" | "warning" | "info"
    rule: str
    function: str
    block: Optional[str]
    uid: Optional[int]     # instruction uid when the finding has one
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "severity": self.severity,
            "rule": self.rule,
            "function": self.function,
            "block": self.block,
            "uid": self.uid,
            "message": self.message,
        }

    def render(self) -> str:
        where = self.function
        if self.block is not None:
            where += f"/{self.block}"
        if self.uid is not None and self.uid >= 0:
            where += f"#u{self.uid}"
        return f"{self.severity}: [{self.rule}] {where}: {self.message}"


@dataclass
class LintReport:
    """All findings for one program."""

    program: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diags: List[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity("warning")

    @property
    def clean(self) -> bool:
        """No errors and no warnings (infos allowed)."""
        return not self.errors and not self.warnings

    def sorted(self) -> List[Diagnostic]:
        rank = {s: i for i, s in enumerate(SEVERITIES)}
        return sorted(
            self.diagnostics,
            key=lambda d: (
                rank.get(d.severity, len(SEVERITIES)),
                d.function,
                d.block or "",
                d.uid if d.uid is not None else -1,
                d.rule,
            ),
        )

    def render(self) -> str:
        lines = [d.render() for d in self.sorted()]
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.by_severity("info"))
        lines.append(
            f"{self.program}: {n_err} error(s), {n_warn} warning(s), "
            f"{n_info} info(s)"
        )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.as_dict() for d in self.sorted()],
        }


def lint_program(program: Program) -> LintReport:
    """Lint every function of ``program``; never raises on bad input."""
    report = LintReport(program=program.name)
    _check_duplicate_uids(program, report)
    _check_dead_functions(program, report)
    for fn in program.functions.values():
        _lint_function(program, fn, report)
    return report


# -- program-wide rules ------------------------------------------------------------


def _check_duplicate_uids(program: Program, report: LintReport) -> None:
    seen: Dict[int, Tuple[str, str]] = {}
    for fn, bb, ins in program.all_instrs():
        if ins.uid in seen:
            first_fn, first_bb = seen[ins.uid]
            report.diagnostics.append(
                Diagnostic(
                    "error",
                    "duplicate-uid",
                    fn.name,
                    bb.name,
                    ins.uid,
                    f"uid {ins.uid} already used in {first_fn}/{first_bb}",
                )
            )
        else:
            seen[ins.uid] = (fn.name, bb.name)


def _check_dead_functions(program: Program, report: LintReport) -> None:
    """Functions no static call path from the entry point reaches.

    Reachability is the transitive closure of ``Call`` terminators from
    ``program.main`` (calls terminate blocks in the mini-ISA, so
    scanning terminators is exhaustive -- the same closure the
    incremental slicer walks).  Functions whose names start with
    :data:`KEEP_PREFIX` are exempt, as are all functions when the entry
    point itself is missing (validate-level breakage: there is no
    meaningful root to walk from).
    """
    from ..isa.fingerprint import static_callees

    entry = program.functions.get(program.main)
    if entry is None:
        return
    reachable: Set[str] = {program.main}
    stack = [entry]
    while stack:
        fn = stack.pop()
        for callee in static_callees(fn):
            if callee in reachable or callee not in program.functions:
                continue
            reachable.add(callee)
            stack.append(program.functions[callee])
    for name in program.functions:
        if name in reachable or name.startswith(KEEP_PREFIX):
            continue
        report.diagnostics.append(
            Diagnostic(
                "warning",
                "dead-function",
                name,
                None,
                None,
                f"no call path from entry point {program.main!r} reaches "
                f"this function (name it {KEEP_PREFIX}... if intentional)",
            )
        )


# -- per-function rules ------------------------------------------------------------


def _lint_function(program: Program, fn: Function, report: LintReport) -> None:
    cfg = StaticCFG(fn)
    diag = report.diagnostics

    for name in fn.blocks:
        if name not in cfg.reachable:
            diag.append(
                Diagnostic(
                    "warning",
                    "unreachable-block",
                    fn.name,
                    name,
                    None,
                    "no static path from the entry reaches this block",
                )
            )

    _check_terminators(program, fn, cfg, report)
    if not cfg.rpo:
        return  # entry missing: validate-level breakage, nothing to solve

    chains = build_def_use_chains(fn)
    _check_uninitialized(fn, chains, report)
    _check_dead_defs(fn, chains, report)

    const_sol = solve(ConstProp(), cfg)
    type_sol = solve(TypeInference(), cfg)
    _check_types_and_constants(fn, cfg, const_sol, type_sol, report)
    _check_loops(fn, cfg, const_sol, report)


def _check_terminators(
    program: Program, fn: Function, cfg: StaticCFG, report: LintReport
) -> None:
    for name, bb in fn.blocks.items():
        term = bb.terminator
        if isinstance(term, CondBr) and term.rel not in RELATIONS:
            report.diagnostics.append(
                Diagnostic(
                    "error",
                    "bad-relation",
                    fn.name,
                    name,
                    None,
                    f"relation {term.rel!r} is not one of {', '.join(RELATIONS)}",
                )
            )
        if isinstance(term, Call):
            callee = program.functions.get(term.callee)
            if callee is None:
                report.diagnostics.append(
                    Diagnostic(
                        "error",
                        "unknown-callee",
                        fn.name,
                        name,
                        None,
                        f"call to unknown function {term.callee!r}",
                    )
                )
            elif len(term.args) != len(callee.params):
                report.diagnostics.append(
                    Diagnostic(
                        "error",
                        "call-arity",
                        fn.name,
                        name,
                        None,
                        f"call to {term.callee!r} passes {len(term.args)} "
                        f"argument(s), expected {len(callee.params)}",
                    )
                )


def _check_uninitialized(
    fn: Function, chains, report: LintReport
) -> None:
    for use in chains.undefined_uses:
        report.diagnostics.append(
            Diagnostic(
                "error",
                "uninitialized-read",
                fn.name,
                use.block,
                use.uid if use.uid >= 0 else None,
                f"register {use.reg!r} is read but never defined on any path",
            )
        )
    seen: Set[Tuple[str, int, str]] = set()
    for use in chains.maybe_undefined_uses:
        key = (use.block, use.uid, use.reg)
        if key in seen:
            continue
        seen.add(key)
        report.diagnostics.append(
            Diagnostic(
                "warning",
                "maybe-uninitialized",
                fn.name,
                use.block,
                use.uid if use.uid >= 0 else None,
                f"register {use.reg!r} may be read before it is defined "
                f"(defined on some paths only)",
            )
        )


def _check_dead_defs(fn: Function, chains, report: LintReport) -> None:
    block_of_uid: Dict[int, str] = {}
    for name, bb in fn.blocks.items():
        for ins in bb.instrs:
            block_of_uid[ins.uid] = name
    for site in chains.dead_defs():
        if site.reg.startswith(SINK_PREFIX):
            continue
        if site.kind == "param":
            report.diagnostics.append(
                Diagnostic(
                    "info",
                    "unused-param",
                    fn.name,
                    None,
                    None,
                    f"parameter {site.reg!r} is never read",
                )
            )
        elif site.kind == "call":
            report.diagnostics.append(
                Diagnostic(
                    "info",
                    "unused-call-result",
                    fn.name,
                    str(site.where),
                    None,
                    f"call result bound to {site.reg!r} is never read",
                )
            )
        else:
            report.diagnostics.append(
                Diagnostic(
                    "warning",
                    "dead-store",
                    fn.name,
                    block_of_uid.get(int(site.where)),
                    int(site.where),
                    f"value written to {site.reg!r} is never read "
                    f"(name it {SINK_PREFIX}... if intentional)",
                )
            )


def _check_types_and_constants(
    fn: Function, cfg: StaticCFG, const_sol, type_sol, report: LintReport
) -> None:
    type_env = instruction_type_env(cfg, type_sol.entry)
    for b in cfg.rpo:
        const_env = dict(const_sol.entry[b].env)
        for ins in cfg.block(b).instrs:
            _check_instr_types(fn, b, ins, type_env.get(ins.uid, {}), report)
            if ins.opcode in ("div", "mod"):
                divisor = ins.srcs[1]
                if isinstance(divisor, str):
                    divisor = const_env.get(divisor)
                if divisor == 0 and isinstance(divisor, int):
                    report.diagnostics.append(
                        Diagnostic(
                            "error",
                            "div-by-zero",
                            fn.name,
                            b,
                            ins.uid,
                            f"{ins.opcode} by the constant 0",
                        )
                    )
            if ins.dest is not None:
                const_env[ins.dest] = _eval_const(ins, const_env)


def _check_instr_types(
    fn: Function, block: str, ins: Instr, env: Dict[str, object], report: LintReport
) -> None:
    op = ins.opcode
    int_op = op in INT_OPS and op != "ftoi"
    float_op = op in FLOAT_OPS and op != "itof"
    if not (int_op or float_op):
        return
    for reg in ins.reg_reads():
        t = env.get(reg)
        if int_op and t is FLOAT:
            severity = "error" if op in _BIT_LEVEL_OPS else "warning"
            report.diagnostics.append(
                Diagnostic(
                    severity,
                    "type-confusion",
                    fn.name,
                    block,
                    ins.uid,
                    f"integer opcode {op!r} reads float register {reg!r}",
                )
            )
        elif float_op and t is INT:
            report.diagnostics.append(
                Diagnostic(
                    "warning",
                    "type-confusion",
                    fn.name,
                    block,
                    ins.uid,
                    f"float opcode {op!r} reads integer register {reg!r} "
                    f"(use itof)",
                )
            )


def _check_loops(
    fn: Function, cfg: StaticCFG, const_sol, report: LintReport
) -> None:
    """Natural loops with no way out.

    Successor edges pruned by constant propagation (a ``CondBr`` whose
    relation is decided by constants) do not count as exits; a
    ``Return``/``Halt`` terminator inside the body does.
    """
    doms = dominators(cfg)
    back_edges = [
        (src, dst)
        for src in cfg.rpo
        for dst in cfg.succs.get(src, ())
        if dst in doms.get(src, frozenset())
    ]
    seen_headers: Set[str] = set()
    for tail, header in back_edges:
        if header in seen_headers:
            continue
        seen_headers.add(header)
        body = _natural_loop(cfg, tail, header)
        if _loop_can_exit(fn, cfg, body, const_sol):
            continue
        report.diagnostics.append(
            Diagnostic(
                "error",
                "infinite-loop",
                fn.name,
                header,
                None,
                f"loop headed at {header!r} has no reachable exit "
                f"({len(body)} block(s) in the body)",
            )
        )


def _natural_loop(cfg: StaticCFG, tail: str, header: str) -> Set[str]:
    body = {header, tail}
    stack = [tail]
    while stack:
        b = stack.pop()
        for p in cfg.preds.get(b, ()):
            if p not in body and p in cfg.reachable:
                body.add(p)
                stack.append(p)
    return body


def _loop_can_exit(
    fn: Function, cfg: StaticCFG, body: Set[str], const_sol
) -> bool:
    for b in body:
        term = fn.blocks[b].terminator
        if isinstance(term, (Return, Halt)):
            return True
        succs = cfg.succs.get(b, ())
        if isinstance(term, CondBr) and term.rel in RELATIONS:
            # exit fact = constants after the block's own instructions
            decided = branch_decided(term, const_sol.exit[b])
            if decided is True:
                succs = (term.taken,)
            elif decided is False:
                succs = (term.not_taken,)
        for s in succs:
            if s not in body:
                return True
    return False
