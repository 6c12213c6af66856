"""The ``cp-``/``ddg-`` keys hash the canonical program digest.

They must move with everything a stored payload names or depends on
-- function names, block names, ``main``, every instruction field --
and must not move with the uid numbering or the order functions are
listed in, so that a twin is a warm hit on its original's artifacts.
"""

import dataclasses
import functools

import pytest

from repro.isa import fingerprint_program
from repro.isa.fingerprint import program_digests
from repro.store import keys_for_spec
from repro.workloads import all_workloads

from ..twins import TWINS


def _kmeans():
    return all_workloads()["kmeans"]()


def _artifact_keys(spec):
    keys = keys_for_spec(spec, fuel=50_000_000, clamp=None)
    return keys.stage1, keys.stage2


def _retarget(term, fields, old, new):
    """``term`` with each of ``fields`` that names ``old`` naming
    ``new``."""
    changes = {f: new for f in fields if getattr(term, f, None) == old}
    return dataclasses.replace(term, **changes) if changes else term


def _rename_function(program, old, new):
    fn = program.functions.pop(old)
    fn.name = new
    program.functions[new] = fn
    for f in program.functions.values():
        for bb in f.blocks.values():
            bb.terminator = _retarget(bb.terminator, ("callee",), old, new)
    if program.main == old:
        program.main = new


def _rename_block(fn, old, new):
    bb = fn.blocks.pop(old)
    bb.name = new
    fn.blocks[new] = bb
    for b in fn.blocks.values():
        b.terminator = _retarget(
            b.terminator, ("target", "taken", "not_taken", "cont"), old, new
        )
    if fn.entry == old:
        fn.entry = new


def _first_instr_with_dest(program):
    for fn in program.functions.values():
        for bb in fn.blocks.values():
            for i, ins in enumerate(bb.instrs):
                if ins.dest is not None:
                    return bb, i
    raise AssertionError("no instruction writes a register")


def _edit_instr(program, field):
    bb, i = _first_instr_with_dest(program)
    ins = bb.instrs[i]
    value = {
        "src_line": (ins.src_line or 0) + 1,
        "offset": ins.offset + 1,
        "dest": ins.dest + "_",
        "opcode": "mul" if ins.opcode != "mul" else "add",
        "srcs": ins.srcs + (1,),
    }[field]
    bb.instrs[i] = dataclasses.replace(ins, **{field: value})


EDITS = {
    "renamed-function": lambda p: _rename_function(
        p, "update_centers", "update_centres"
    ),
    "renamed-block": lambda p: _rename_block(
        p.functions["assign_points"],
        sorted(p.functions["assign_points"].blocks)[-1],
        "renamed_block",
    ),
    "main": lambda p: setattr(p, "main", "assign_points"),
    **{
        f"instr-{field}": functools.partial(_edit_instr, field=field)
        for field in ("src_line", "offset", "dest", "opcode", "srcs")
    },
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_a_change_the_payload_sees_moves_the_keys(edit):
    spec = _kmeans()
    EDITS[edit](spec.program)
    assert _artifact_keys(spec) != _artifact_keys(_kmeans())
    assert program_digests(spec.program)[1] != program_digests(
        _kmeans().program
    )[1]


@pytest.mark.parametrize("twin", list(TWINS))
def test_a_twin_keeps_the_keys(twin):
    spec = TWINS[twin](_kmeans())
    assert fingerprint_program(spec.program) != fingerprint_program(
        _kmeans().program
    )
    assert _artifact_keys(spec) == _artifact_keys(_kmeans())


def test_exact_digest_is_the_program_fingerprint():
    program = _kmeans().program
    exact, canonical = program_digests(program)
    assert exact == fingerprint_program(program)
    assert canonical != exact
