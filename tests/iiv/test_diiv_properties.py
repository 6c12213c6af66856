"""Property tests: dynamic-IIV invariants over randomized programs."""

from typing import NamedTuple, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import (
    ControlStructureBuilder,
    LoopEventGenerator,
    build_loop_forest,
    build_recursive_component_set,
)
from repro.iiv import DynamicIIV
from repro.isa import ProgramBuilder, run_program


@st.composite
def nest_shape(draw):
    depth = draw(st.integers(1, 3))
    bounds = [draw(st.integers(1, 4)) for _ in range(depth)]
    call_leaf = draw(st.booleans())
    second_nest = draw(st.booleans())
    recursion = draw(st.integers(0, 3))
    return bounds, call_leaf, second_nest, recursion


class Extras(NamedTuple):
    """Control shapes beyond :func:`nest_shape`, all off by default.

    * ``break_at``: two nested while loops (3 x 3 trips) whose inner
      body jumps straight out of both when ``3 * i + j == break_at`` --
      one jump carrying ``X X`` (from 3 on, after a full outer
      iteration, so the outer loop is a loop);
    * ``data``: a while loop over ``A`` that exits early on the first
      zero element (a data-dependent exit); ``main`` then takes ``A``;
    * ``rec_loop``: bit 0 puts a loop before ``rec``'s recursive call,
      bit 1 one after it, bit 2 moves the call into the first loop --
      jumps inside the recursive component between ``Ic``/``Ir``;
    * ``helper_twice``: ``helper`` (which has a loop) is called from
      the nest's innermost body and again after the nest -- its loop is
      entered from a new context after it has been left many times.
    """

    break_at: Optional[int] = None
    data: Optional[Tuple[int, ...]] = None
    rec_loop: int = 0
    helper_twice: bool = False


@st.composite
def extras_shape(draw):
    return Extras(
        break_at=draw(st.none() | st.integers(3, 9)),
        data=draw(st.none() | st.tuples(*[st.integers(0, 2)] * 4)),
        rec_loop=draw(st.integers(0, 7)),
        helper_twice=draw(st.booleans()),
    )


def _counter_while(f, trips):
    """``i = 0; while (i < trips) { ... }``: returns (handle, i)."""
    i = f.set(f.fresh_reg("w"), 0)
    h = f.while_begin()
    f.while_cond(h, "lt", i, trips)
    return h, i


def build_program(shape, extras: Extras = Extras()):
    bounds, call_leaf, second_nest, recursion = shape
    pb = ProgramBuilder("r")
    with pb.function("main", ["A"] if extras.data is not None else []) as f:
        ctxs = []
        for b in bounds:
            c = f.loop(0, b)
            c.__enter__()
            ctxs.append(c)
        if call_leaf:
            f.call("leaf", [])
        else:
            f.add(1, 1)
        if extras.helper_twice:
            f.call("helper", [])
        for c in reversed(ctxs):
            c.__exit__(None, None, None)
        if extras.helper_twice:
            f.call("helper", [])
        if second_nest:
            with f.loop(0, 2) as i:
                f.add(i, 1)
        if extras.break_at is not None:
            outer, i = _counter_while(f, 3)
            inner, j = _counter_while(f, 3)
            ij = f.add(f.mul(i, 3), j)
            with f.if_then("eq", ij, extras.break_at):
                f.break_to(outer.exit)
            f.add(j, 1, into=j)
            f.while_end(inner)
            f.add(i, 1, into=i)
            f.while_end(outer)
        if extras.data is not None:
            w, k = _counter_while(f, len(extras.data))
            with f.if_then("eq", f.load("A", index=k), 0):
                f.break_to(w.exit)
            f.add(k, 1, into=k)
            f.while_end(w)
        if recursion:
            f.call("rec", [0])
        f.halt()
    with pb.function("leaf", []) as f:
        with f.loop(0, 2) as i:
            f.add(i, 1)
        f.ret()
    with pb.function("rec", ["n"]) as f:
        f.add("n", 1)
        if extras.rec_loop & 1:
            with f.loop(0, 2) as i:
                f.add(i, "n")
                if extras.rec_loop & 4:
                    with f.if_then("lt", "n", max(recursion - 1, 0)):
                        f.call("rec", [f.add("n", 1)])
        if (extras.rec_loop & 5) != 5:
            with f.if_then("lt", "n", max(recursion - 1, 0)):
                f.call("rec", [f.add("n", 1)])
        if extras.rec_loop & 2:
            with f.loop(0, 2) as i:
                f.add(i, "n")
        f.ret()
    if extras.helper_twice:
        with pb.function("helper", []) as f:
            with f.loop(0, 2) as i:
                f.add(i, 1)
            f.ret()
    return pb.build()


@given(nest_shape())
@settings(max_examples=40, deadline=None)
def test_iiv_invariants_hold_throughout(shape):
    """At every point of any execution:

    * the IIV's coordinate count equals its dimension count;
    * all induction values are non-negative;
    * the loop stack unwinds completely by program end;
    * context stacks never go empty mid-run.
    """
    program = build_program(shape)
    csb = ControlStructureBuilder(record_trace=True)
    run_program(program, observers=[csb])
    forests = {
        f: build_loop_forest(f, c.nodes, c.edges, c.entry)
        for f, c in csb.cfgs.items()
    }
    rcs = build_recursive_component_set(
        csb.callgraph.nodes, csb.callgraph.edges, csb.callgraph.root
    )
    gen = LoopEventGenerator(forests, rcs)
    diiv = DynamicIIV()
    max_depth = 0
    for ev in csb.trace:
        for le in gen.process(ev):
            diiv.apply(le)
            coords = diiv.coords()
            assert len(coords) == diiv.depth
            assert all(c >= 0 for c in coords)
            assert all(len(ctx) >= 0 for ctx in diiv.context())
        max_depth = max(max_depth, diiv.depth)
    assert gen.in_loops == []
    # depth bounded by static nesting + one recursion dimension
    bounds, call_leaf, second_nest, recursion = shape
    static_bound = len(bounds) + (1 if call_leaf else 0) + 1 + (
        1 if recursion else 0
    )
    assert max_depth <= static_bound


@given(st.integers(2, 10))
@settings(max_examples=10, deadline=None)
def test_recursion_depth_never_grows_iiv(depth):
    """The central Fig. 3 property, checked across depths."""
    pb = ProgramBuilder("r")
    with pb.function("main", []) as f:
        f.call("rec", [0])
        f.halt()
    with pb.function("rec", ["n"]) as f:
        f.add("n", 1)
        with f.if_then("lt", "n", depth - 1):
            f.call("rec", [f.add("n", 1)])
        f.ret()
    program = pb.build()
    csb = ControlStructureBuilder(record_trace=True)
    run_program(program, observers=[csb])
    forests = {
        f: build_loop_forest(f, c.nodes, c.edges, c.entry)
        for f, c in csb.cfgs.items()
    }
    rcs = build_recursive_component_set(
        csb.callgraph.nodes, csb.callgraph.edges, csb.callgraph.root
    )
    gen = LoopEventGenerator(forests, rcs)
    diiv = DynamicIIV()
    max_dims = 0
    max_ctx = 0
    for ev in csb.trace:
        for le in gen.process(ev):
            diiv.apply(le)
        max_dims = max(max_dims, diiv.depth)
        max_ctx = max(max_ctx, max(len(c) for c in diiv.context()))
    assert max_dims == 1           # one recursive-loop dimension
    assert max_ctx <= 3            # bounded context, any depth
