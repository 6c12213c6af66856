"""Instrumentation II: dynamic dependence graph construction.

This observer implements the paper's second instrumentation pass: it
re-runs the program with the control structure (loop forests +
recursive-component-set) from Instrumentation I, maintains the dynamic
IIV via loop events (Algorithms 1-3), tracks register and memory
dependences, and streams statement/dependence *points* -- coordinates
plus integer labels -- into a :class:`~repro.ddg.graph.DDGSink`
(normally the folding stage).

Label conventions (paper section 5, "Folding interface"):

* memory instructions are labelled with their effective address
  (feeding access-function recognition and stride analysis);
* integer-valued instructions are labelled with the produced value
  (feeding SCEV recognition);
* floating-point instructions carry no label (their values are not
  affine functions of iterators and are never SCEVs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cfg.loop_events import LoopEventGenerator
from ..cfg.looptree import LoopForest
from ..cfg.rcs import RecursiveComponentSet
from ..iiv.diiv import Dimension, DynamicIIV
from ..iiv.schedule_tree import DynamicScheduleTree
from ..isa.events import CallEvent, Instrumentation, JumpEvent, ReturnEvent
from ..isa.program import Program
from .graph import (
    DDGSink,
    DepKey,
    MEM_ANTI,
    MEM_FLOW,
    MEM_OUTPUT,
    REG_FLOW,
    Statement,
    StmtKey,
)
from .shadow import DynRef, ShadowMemory


class _IIVState:
    """One interned dynamic-IIV context: a state of the jump table.

    ``jumps`` maps ``id(JumpEvent)`` to ``(next state, k, entered,
    iterates, event)``: the jump exits the ``k`` innermost loops, then
    enters the loop ``entered`` (coordinate 0 appended) or, if
    ``iterates``, iterates the innermost one (its coordinate + 1).
    The entry keeps the event alive so its id cannot be reused.
    ``cid`` is the public context id, interned at the first block
    executed in the context.
    """

    __slots__ = ("ctx", "cid", "jumps")

    def __init__(self, ctx: Tuple) -> None:
        self.ctx = ctx
        self.cid: Optional[int] = None
        self.jumps: Dict[int, Tuple] = {}


class DDGBuilder(Instrumentation):
    """Builds the DDG point streams for one execution.

    The dynamic IIV is kept as a state (an interned context) plus a
    coordinate tuple.  Calls and returns always go through the loop
    event generator and :class:`~repro.iiv.diiv.DynamicIIV`.  With
    ``jump_table`` (the fast engine, whose compiled blocks hand over
    the same :class:`~repro.isa.events.JumpEvent` object on every
    execution of a branch) a jump does so only the first time it leaves
    a given state; after that it is one lookup in the state's table,
    and the DIIV's dimensions are rebuilt from (context, coordinates)
    just before the generator next runs (in between, ``diiv`` lags
    behind).  Without it (the reference engine) every control event
    runs Algorithms 1-3.
    """

    def __init__(
        self,
        program: Program,
        forests: Dict[str, LoopForest],
        rcs: RecursiveComponentSet,
        sink: DDGSink,
        track_anti_output: bool = True,
        build_schedule_tree: bool = True,
        jump_table: bool = False,
    ) -> None:
        self.program = program
        self.sink = sink
        self.track_anti_output = track_anti_output
        self.gen = LoopEventGenerator(forests, rcs)
        self.diiv = DynamicIIV()
        self.shadow = ShadowMemory()
        self.schedule_tree = DynamicScheduleTree() if build_schedule_tree else None

        #: frame id -> register -> producing dynamic instruction
        self._reg_defs: Dict[int, Dict[str, DynRef]] = {}
        #: frame id -> (caller frame id, dest register in caller)
        self._frame_info: Dict[int, Tuple[Optional[int], Optional[str]]] = {}
        self._frame_stack: List[int] = []

        # the IIV as (state, coordinates); _cached_ctx is the state's
        # context.  States are interned by context; public context ids
        # (_ctx_ids) only for contexts that execute a block.
        self._jump_table = jump_table
        self._states: Dict[Tuple, _IIVState] = {}
        self._ctx_ids: Dict[Tuple, int] = {}
        #: context id -> instructions executed in it by ``on_block``,
        #: merged into the schedule tree at ``on_halt``
        self._ctx_weight: List[int] = []
        self._dims_stale = False
        self._enter(self.diiv.context(), self.diiv.coords())
        self._declared: Set[StmtKey] = set()
        self._current_func: str = ""

        # batched (on_block) path caches.  _block_cache maps
        # (id(instrs), ctx id) -> per-instruction metadata with the
        # statement keys resolved and declared; the cache entry keeps a
        # strong reference to the instrs tuple so the id stays valid.
        # _dep_keys interns DepKey instances (their population is
        # bounded by the static dependence structure).
        self._block_cache: Dict[Tuple[int, int], Tuple] = {}
        self._dep_keys: Dict[Tuple, DepKey] = {}

        #: dynamic instruction count (sanity/metric)
        self.instr_count = 0

    @property
    def context_ids(self) -> Dict[Tuple, int]:
        """The run's context-interning table (context tuple -> id, in
        first-observation order)."""
        return self._ctx_ids

    # -- control events: keep the IIV current ---------------------------------------

    def _enter(self, ctx: Tuple, coords: Tuple[int, ...]) -> None:
        st = self._states.get(ctx)
        if st is None:
            st = self._states[ctx] = _IIVState(ctx)
        self._state = st
        self._cached_ctx = st.ctx
        self._cached_coords = coords

    def _apply_control(self, event) -> List:
        """Run Algorithms 1-3 on one control event; returns its loop
        events."""
        diiv = self.diiv
        if self._dims_stale:
            ctx = self._cached_ctx
            dims = [Dimension(iv=None, ctx=list(ctx[0]))]
            for iv, c in zip(self._cached_coords, ctx[1:]):
                dims.append(Dimension(iv=iv, ctx=list(c)))
            diiv.dims = dims
            self._dims_stale = False
        events = list(self.gen.process(event))
        for le in events:
            diiv.apply(le)
        self._enter(diiv.context(), diiv.coords())
        return events

    def on_jump(self, event: JumpEvent) -> None:
        self._current_func = event.func
        src = self._state
        hit = src.jumps.get(id(event))
        if hit is None:
            # Algorithm 1 reads only the live loops and their visiting
            # flags, which the context determines: each live loop owns
            # one dimension and its id ends the parent's context.
            events = self._apply_control(event)
            if self._jump_table:
                k, entered, iterates = 0, None, False
                for le in events:
                    if le.kind == "X":
                        k += 1
                    elif le.kind == "E":
                        entered = le.loop
                    elif le.kind == "I":
                        iterates = True
                src.jumps[id(event)] = (
                    self._state, k, entered, iterates, event
                )
            return
        st, k, entered, iterates, _ = hit
        coords = self._cached_coords
        # keep the generator's loop stack exact for calls and returns
        if k:
            coords = coords[:-k]
            in_loops = self.gen.in_loops
            visiting = self.gen._visiting
            for _ in range(k):
                visiting.discard(in_loops.pop().id)
        if entered is not None:
            coords += (0,)
            self.gen.in_loops.append(entered)
            self.gen._visiting.add(entered.id)
        elif iterates:
            coords = coords[:-1] + (coords[-1] + 1,)
        self._state = st
        self._cached_ctx = st.ctx
        self._cached_coords = coords
        self._dims_stale = True

    def on_call(self, event: CallEvent) -> None:
        # thread register defs from caller args to callee params
        caller_fid = self._frame_stack[-1] if self._frame_stack else None
        callee_defs: Dict[str, DynRef] = {}
        if caller_fid is not None and event.args:
            params = self.program.function(event.callee).params
            caller_defs = self._reg_defs.get(caller_fid, {})
            for param, arg in zip(params, event.args):
                if isinstance(arg, str) and arg in caller_defs:
                    callee_defs[param] = caller_defs[arg]
        self._reg_defs[event.frame_id] = callee_defs
        self._frame_info[event.frame_id] = (caller_fid, event.dest)
        self._frame_stack.append(event.frame_id)
        self._current_func = event.callee
        self._apply_control(event)

    def on_return(self, event: ReturnEvent) -> None:
        fid = self._frame_stack.pop() if self._frame_stack else None
        if fid is not None:
            caller_fid, dest = self._frame_info.pop(fid, (None, None))
            defs = self._reg_defs.pop(fid, {})
            # thread the return value's producer into the caller's dest reg
            if (
                dest is not None
                and caller_fid is not None
                and isinstance(event.value, str)
                and event.value in defs
            ):
                self._reg_defs.setdefault(caller_fid, {})[dest] = defs[event.value]
        if event.caller is not None:
            self._current_func = event.caller
        self._apply_control(event)

    # -- the hot path ------------------------------------------------------------------

    def _intern(self, st: _IIVState) -> int:
        """Give the current state its public context id (first block
        executed in it)."""
        cid = st.cid = len(self._ctx_ids)
        self._ctx_ids[st.ctx] = cid
        self._ctx_weight.append(0)
        return cid

    def _context_view(self) -> Tuple[int, Tuple[int, ...]]:
        st = self._state
        cid = st.cid
        if cid is None:
            cid = self._intern(st)
        return cid, self._cached_coords

    def on_halt(self) -> None:
        """Merge the per-context counts of ``on_block`` into the
        schedule tree, in context-id order -- the order in which the
        contexts were first observed, so node creation order matches
        recording each block as it ran."""
        if self.schedule_tree is None:
            return
        weights = self._ctx_weight
        record = self.schedule_tree.record_context
        for ctx, cid in self._ctx_ids.items():
            w = weights[cid]
            if w:
                # a block execution counts one visit per instruction
                record(ctx, w, visits=w)

    def on_instr(self, instr, frame_id: int, value, addr) -> None:
        self.instr_count += 1
        cid, coords = self._context_view()
        key: StmtKey = (instr.uid, cid)
        if key not in self._declared:
            self._declared.add(key)
            self.sink.declare_statement(
                Statement(
                    key=key,
                    instr=instr,
                    func=self._current_func,
                    context=self._cached_ctx,
                )
            )
        if self.schedule_tree is not None:
            self.schedule_tree.record_context(self._cached_ctx, 1)

        # label
        if addr is not None:
            label: Tuple[int, ...] = (addr,)
        elif isinstance(value, int):
            label = (value,)
        else:
            label = ()
        self.sink.instr_point(key, coords, label)

        me: DynRef = (key, coords)
        defs = self._reg_defs.setdefault(frame_id, {})

        # register flow dependences
        for reg in instr.srcs:
            if isinstance(reg, str):
                prod = defs.get(reg)
                if prod is not None:
                    self.sink.dep_point(
                        DepKey(src=prod[0], dst=key, kind=REG_FLOW),
                        coords,
                        prod[1],
                    )

        # memory dependences via shadow memory
        if instr.is_load:
            w = self.shadow.on_read(addr, me)
            if w is not None:
                self.sink.dep_point(
                    DepKey(src=w[0], dst=key, kind=MEM_FLOW), coords, w[1]
                )
        elif instr.is_store:
            prev, readers = self.shadow.on_write(addr, me)
            if self.track_anti_output:
                if prev is not None:
                    self.sink.dep_point(
                        DepKey(src=prev[0], dst=key, kind=MEM_OUTPUT),
                        coords,
                        prev[1],
                    )
                for r in readers:
                    self.sink.dep_point(
                        DepKey(src=r[0], dst=key, kind=MEM_ANTI), coords, r[1]
                    )

        # record the definition
        if instr.dest is not None:
            defs[instr.dest] = me

    # -- the batched hot path ----------------------------------------------------------

    def _prime_block(self, instrs, cid: int) -> Tuple:
        """First sighting of (block, context): resolve + declare the
        statement keys and precompute per-instruction metadata."""
        ctx = self._cached_ctx
        func = self._current_func
        declared = self._declared
        declare = self.sink.declare_statement
        metas = []
        for ins in instrs:
            key: StmtKey = (ins.uid, cid)
            if key not in declared:
                declared.add(key)
                declare(
                    Statement(key=key, instr=ins, func=func, context=ctx)
                )
            memk = 1 if ins.is_load else (2 if ins.is_store else 0)
            metas.append((key, ins.reg_reads(), ins.dest, memk))
        # keep `instrs` alive so the id() cache key cannot be reused
        return (instrs, tuple(metas))

    def on_block(self, instrs, frame_id: int, values, addrs) -> None:
        """Batched equivalent of ``on_instr`` for one executed block.

        The context view, statement keys, and declaration checks are
        per-(block, context) and cached; per-instruction work reduces
        to labels, register-def threading, and shadow-memory ops.  The
        emitted per-stream point sequences are identical to the
        unbatched path (streams are keyed per statement / per
        dependence, and batching preserves intra-stream order).
        """
        n = len(instrs)
        if n == 0:
            return
        self.instr_count += n
        cid, coords = self._context_view()
        self._ctx_weight[cid] += n
        ckey = (id(instrs), cid)
        binfo = self._block_cache.get(ckey)
        if binfo is None:
            binfo = self._prime_block(instrs, cid)
            self._block_cache[ckey] = binfo
        metas = binfo[1]

        defs = self._reg_defs.setdefault(frame_id, {})
        defs_get = defs.get
        dep_keys = self._dep_keys
        ipoints: List = []
        dpoints: List = []
        mem_ops: List = []
        add_ipoint = ipoints.append
        add_dpoint = dpoints.append

        i = 0
        for key, regs_read, dest, memk in metas:
            value = values[i]
            addr = addrs[i]
            i += 1
            if addr is not None:
                label: Tuple[int, ...] = (addr,)
            elif isinstance(value, int):
                label = (value,)
            else:
                label = ()
            add_ipoint((key, label))

            for reg in regs_read:
                prod = defs_get(reg)
                if prod is not None:
                    ident = (prod[0], key, REG_FLOW)
                    dk = dep_keys.get(ident)
                    if dk is None:
                        dk = DepKey(src=prod[0], dst=key, kind=REG_FLOW)
                        dep_keys[ident] = dk
                    add_dpoint((dk, prod[1]))

            if memk:
                me: DynRef = (key, coords)
                mem_ops.append((memk == 2, addr, me))
                if dest is not None:
                    defs[dest] = me
            elif dest is not None:
                defs[dest] = (key, coords)

        if mem_ops:
            results = self.shadow.process_block(mem_ops)
            track = self.track_anti_output
            for (is_store, _addr, me), res in zip(mem_ops, results):
                key = me[0]
                if not is_store:
                    if res is not None:
                        ident = (res[0], key, MEM_FLOW)
                        dk = dep_keys.get(ident)
                        if dk is None:
                            dk = DepKey(src=res[0], dst=key, kind=MEM_FLOW)
                            dep_keys[ident] = dk
                        add_dpoint((dk, res[1]))
                elif track:
                    prev, readers = res
                    if prev is not None:
                        ident = (prev[0], key, MEM_OUTPUT)
                        dk = dep_keys.get(ident)
                        if dk is None:
                            dk = DepKey(src=prev[0], dst=key, kind=MEM_OUTPUT)
                            dep_keys[ident] = dk
                        add_dpoint((dk, prev[1]))
                    for r in readers:
                        ident = (r[0], key, MEM_ANTI)
                        dk = dep_keys.get(ident)
                        if dk is None:
                            dk = DepKey(src=r[0], dst=key, kind=MEM_ANTI)
                            dep_keys[ident] = dk
                        add_dpoint((dk, r[1]))

        self.sink.instr_points(coords, ipoints)
        if dpoints:
            self.sink.dep_points(coords, dpoints)
