"""Tiny semantics-preserving program edits for tests, CI, and benches.

The store and ``analyze(baseline=...)`` are exercised end-to-end by
editing *one function* of a real workload (the edit runs cold) or
renumbering its uids (a twin: a warm hit on the original's stored
artifacts).  The edit appended here -- a ``const`` into a dead
``%sink``-prefixed register at the end of the target function's entry
block -- is the smallest change
that is still an honest body edit: the function's fingerprint, its
statement set, and its folded domains all change, while the program's
observable behavior (and thus every *other* function's analysis) does
not.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..isa.instructions import Instr
from ..isa.program import BasicBlock, Function, Program


def append_sink_instr(
    program: Program,
    func: str,
    reg: str = "%sink_incr",
    value: int = 7,
) -> Program:
    """A copy of ``program`` with one dead ``const`` appended to the
    entry block of ``func``.  Fresh uid (max+1), so every other
    function keeps its uids -- the minimal realistic one-function edit.
    """
    fn = program.functions[func]
    next_uid = max(ins.uid for _f, _b, ins in program.all_instrs()) + 1
    entry = fn.blocks[fn.entry]
    extra = Instr(
        uid=next_uid,
        opcode="const",
        dest=reg,
        srcs=(value,),
        offset=len(entry.instrs),
    )
    blocks: Dict[str, BasicBlock] = dict(fn.blocks)
    blocks[fn.entry] = BasicBlock(
        name=entry.name,
        instrs=list(entry.instrs) + [extra],
        terminator=entry.terminator,
    )
    functions = dict(program.functions)
    functions[func] = Function(
        name=fn.name,
        params=tuple(fn.params),
        entry=fn.entry,
        blocks=blocks,
        src_loop_depth=fn.src_loop_depth,
        src_file=fn.src_file,
    )
    edited = Program(
        functions=functions, main=program.main, name=program.name
    )
    edited.validate()
    return edited


def edited_spec(spec, func: str, **kwargs):
    """A copy of a :class:`~repro.pipeline.ProgramSpec` whose program
    has the one-function sink edit applied (same state factory)."""
    return replace(
        spec, program=append_sink_instr(spec.program, func, **kwargs)
    )


def renumber_uids(program: Program, offset: int = 1000) -> Program:
    """A copy of ``program`` with every instruction uid shifted by
    ``offset`` -- the canonical "recompiled after a formatting-only
    change" twin.  Its canonical digest and every function's canonical
    fingerprint are unchanged (uids are not semantic), so it shares the
    original's store keys and a baseline diff classifies the whole
    program as unchanged.

    A *fresh* :class:`Program` is built rather than mutating in place:
    programs are immutable once validated (the VM caches its
    compilation on the object), so an in-place renumber would silently
    execute the stale original.
    """
    functions: Dict[str, Function] = {}
    for fname, fn in program.functions.items():
        blocks: Dict[str, BasicBlock] = {}
        for bname, bb in fn.blocks.items():
            blocks[bname] = BasicBlock(
                name=bb.name,
                instrs=[
                    replace(ins, uid=ins.uid + offset) for ins in bb.instrs
                ],
                terminator=bb.terminator,
            )
        functions[fname] = Function(
            name=fn.name,
            params=tuple(fn.params),
            entry=fn.entry,
            blocks=blocks,
            src_loop_depth=fn.src_loop_depth,
            src_file=fn.src_file,
        )
    renum = Program(
        functions=functions, main=program.main, name=program.name
    )
    renum.validate()
    return renum


def renumbered_spec(spec, offset: int = 1000):
    """A copy of a spec whose program is uid-renumbered (same state
    factory) -- the no-semantic-change twin scenario."""
    return replace(spec, program=renumber_uids(spec.program, offset))
