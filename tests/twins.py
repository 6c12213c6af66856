"""Twins of a workload: the same program with other instruction uids.

Each builder takes a :class:`~repro.pipeline.ProgramSpec` and returns a
copy (same state factory) whose program differs only in its uid
numbering or function listing order, so its canonical program digest
-- and with it every ``cp-``/``ddg-`` store key -- equals the
original's, while its exact fingerprint does not.
"""

from dataclasses import replace

from repro.incr import renumbered_spec
from repro.isa.program import BasicBlock, Function, Program


def _rebuild(program: Program, uid_of, order) -> Program:
    """A fresh copy of ``program`` with uids mapped through ``uid_of``
    and its functions listed in ``order``."""
    functions = {}
    for fname in order:
        fn = program.functions[fname]
        functions[fname] = Function(
            name=fn.name,
            params=tuple(fn.params),
            entry=fn.entry,
            blocks={
                bname: BasicBlock(
                    name=bb.name,
                    instrs=[
                        replace(ins, uid=uid_of(ins.uid)) for ins in bb.instrs
                    ],
                    terminator=bb.terminator,
                )
                for bname, bb in fn.blocks.items()
            },
            src_loop_depth=fn.src_loop_depth,
            src_file=fn.src_file,
        )
    twin = Program(functions=functions, main=program.main, name=program.name)
    twin.validate()
    return twin


def _permuted(spec):
    """Every uid swapped with its mirror in sorted order, so the
    canonical order of statements and dependences changes."""
    program = spec.program
    uids = sorted(ins.uid for _f, _b, ins in program.all_instrs())
    mirror = dict(zip(uids, reversed(uids)))
    return replace(
        spec,
        program=_rebuild(program, mirror.__getitem__, program.functions),
    )


def _reordered(spec):
    """The functions listed in reverse and numbered afresh in that
    order, as a frontend emitting them in that order would: the
    fingerprint ignores the listing order alone, but not the uids."""
    program = spec.program
    order = list(reversed(list(program.functions)))
    uids = sorted(ins.uid for _f, _b, ins in program.all_instrs())
    renumber = dict(
        zip(
            (
                ins.uid
                for fname in order
                for bb in program.functions[fname].blocks.values()
                for ins in bb.instrs
            ),
            uids,
        )
    )
    return replace(
        spec, program=_rebuild(program, renumber.__getitem__, order)
    )


TWINS = {
    "offset1000": lambda spec: renumbered_spec(spec, offset=1000),
    "offset7000": lambda spec: renumbered_spec(spec, offset=7000),
    "permuted": _permuted,
    "reordered": _reordered,
}
