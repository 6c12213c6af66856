"""The fast engine's jump table against Algorithms 1-3.

With the fast engine the DDG builder replays a jump it has already
seen leave the current IIV state from a transition table instead of
running the loop event generator and the dynamic IIV.  The reference
engine runs them on every control event.  These tests generate
programs whose control shapes stress the table -- jumps that exit two
loops at once, data-dependent loop exits, loops inside a recursive
component, one helper reached from two loop depths -- and check that
both engines build the same point streams, context ids, schedule tree
and folded DDG; and that the table really replaces the generator.
"""

from hypothesis import given, settings

from repro.cfg import ControlStructureBuilder, LoopEventGenerator
from repro.ddg import RecordingSink
from repro.iiv import DynamicIIV
from repro.isa import Memory, run_program
from repro.isa.events import JumpEvent
from repro.pipeline import ProgramSpec, analyze, profile_control, profile_ddg
from repro.workloads import all_workloads

from ..iiv.test_diiv_properties import (
    Extras,
    build_program,
    extras_shape,
    nest_shape,
)
from ..integration.test_engine_equivalence import dep_sig, stmt_sig


def build_spec(shape, extras):
    program = build_program(shape, extras)

    def state():
        mem = Memory()
        if extras.data is None:
            return (), mem
        return (mem.alloc_array(list(extras.data)),), mem

    return ProgramSpec("shape", program, state)


def _streams(ddgp):
    sink = ddgp.sink
    stmts = {
        key: (s.func, s.context, s.instr.uid)
        for key, s in sink.statements.items()
    }
    return stmts, sink.points, sink.deps


@given(nest_shape(), extras_shape())
@settings(deadline=None)
def test_fast_builder_matches_reference(shape, extras):
    spec = build_spec(shape, extras)
    control = profile_control(spec)
    fast = profile_ddg(spec, control, sink=RecordingSink(), engine="fast")
    ref = profile_ddg(
        spec, control, sink=RecordingSink(), engine="reference"
    )
    assert _streams(fast) == _streams(ref)
    assert list(fast.builder.context_ids.items()) == list(
        ref.builder.context_ids.items()
    )
    assert (
        fast.builder.schedule_tree.render_text()
        == ref.builder.schedule_tree.render_text()
    )

    fast_r = analyze(spec, engine="fast")
    ref_r = analyze(spec, engine="reference")
    assert {k: stmt_sig(v) for k, v in fast_r.folded.statements.items()} \
        == {k: stmt_sig(v) for k, v in ref_r.folded.statements.items()}
    assert {k: dep_sig(v) for k, v in fast_r.folded.deps.items()} \
        == {k: dep_sig(v) for k, v in ref_r.folded.deps.items()}


# -- the generator runs once per new (state, jump), not per jump -------------


def _reference_trace(spec, control):
    """Control events of one run, each jump paired with the IIV context
    it leaves (computed by Algorithms 1-3 directly)."""
    args, memory = spec.make_state()
    csb = ControlStructureBuilder(record_trace=True)
    run_program(spec.program, args=args, memory=memory, observers=[csb])
    gen = LoopEventGenerator(control.forests, control.rcs)
    diiv = DynamicIIV()
    pairs = set()
    for ev in csb.trace:
        if isinstance(ev, JumpEvent):
            pairs.add((diiv.context(), ev))
        for le in gen.process(ev):
            diiv.apply(le)
    return csb.trace, pairs


def _count_process(monkeypatch):
    counts = {"jump": 0, "other": 0}
    real = LoopEventGenerator.process

    def spy(self, event):
        counts["jump" if isinstance(event, JumpEvent) else "other"] += 1
        return real(self, event)

    monkeypatch.setattr(LoopEventGenerator, "process", spy)
    return counts


def _check_generator_calls(monkeypatch, spec):
    control = profile_control(spec)
    trace, pairs = _reference_trace(spec, control)
    jumps = sum(isinstance(ev, JumpEvent) for ev in trace)
    counts = _count_process(monkeypatch)

    profile_ddg(spec, control, engine="reference")
    assert counts == {"jump": jumps, "other": len(trace) - jumps}

    counts.update(jump=0, other=0)
    profile_ddg(spec, control, engine="fast")
    assert counts["other"] == len(trace) - jumps  # calls and returns
    assert counts["jump"] <= len(pairs)
    return jumps, counts["jump"]


def test_reference_engine_runs_generator_per_event(monkeypatch):
    jumps, fast_jumps = _check_generator_calls(
        monkeypatch, all_workloads()["kmeans"]()
    )
    # kmeans' loops repeat their (context, jump) pairs many times over
    assert fast_jumps * 5 < jumps


def test_jump_table_with_recursion_and_breaks(monkeypatch):
    spec = build_spec(
        ([2, 3], True, True, 3),
        Extras(break_at=5, data=(1, 2, 0, 1), rec_loop=7, helper_twice=True),
    )
    _check_generator_calls(monkeypatch, spec)
