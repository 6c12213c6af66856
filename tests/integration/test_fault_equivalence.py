"""A program that faults mid-block in stage 2 fails the same way on both
engines.

The fast engine delivers the instructions of a faulting block that did
execute -- a prefix of the block's statements -- before it re-raises.
When the block ran before, its (block, context) group is already bound
in the fast folding sink, and the sink drops the prefix batch: the
error ends the analysis, so nothing reads the sink again.
"""

from unittest.mock import patch

import pytest

from repro.folding import FastFoldingSink
from repro.isa import Memory, ProgramBuilder
from repro.isa.vm import VMError
from repro.pipeline import ProgramSpec, analyze

N = 6
FAULT_AT = 3


def faulting_spec() -> ProgramSpec:
    pb = ProgramBuilder("fault")
    with pb.function("main", ["A", "D"]) as f:
        with f.loop(0, N) as i:
            v = f.load("A", index=i)
            s = f.add(v, i)
            d = f.load("D", index=i)
            q = f.div(s, d)
            f.store("A", q, index=i, offset=1)
        f.halt()
    program = pb.build()
    runs = []

    def make_state():
        # stage 1 sees no zero divisor; every later run (stage 2) has
        # one at iteration FAULT_AT, so the fault reaches the sink
        mem = Memory()
        divisors = [1] * N
        if runs:
            divisors[FAULT_AT] = 0
        runs.append(None)
        a = mem.alloc_array(list(range(N + 1)))
        return (a, mem.alloc_array(divisors)), mem

    return ProgramSpec(name="fault", program=program, make_state=make_state)


def _error(engine):
    with pytest.raises(VMError) as info:
        analyze(faulting_spec(), engine=engine)
    return str(info.value)


def test_mid_block_fault_raises_the_same_error_on_both_engines():
    batches = []
    instr_points = FastFoldingSink.instr_points

    def spy(self, coords, items):
        batches.append(tuple(key for key, _ in items))
        return instr_points(self, coords, items)

    with patch.object(FastFoldingSink, "instr_points", spy):
        fast = _error("fast")
    assert fast == _error("reference") == "integer division by zero"
    # the faulting execution delivered a proper prefix of a block whose
    # group was bound by its earlier executions
    last = batches[-1]
    assert any(
        len(b) > len(last) and b[: len(last)] == last for b in batches[:-1]
    )
