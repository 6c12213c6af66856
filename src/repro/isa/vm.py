"""The instrumenting virtual machine.

Executes a :class:`~repro.isa.program.Program` while feeding raw events
to attached :class:`~repro.isa.events.Instrumentation` observers.  This
is the substitute for QEMU + the paper's instrumentation plugins: the
observers see only what binary instrumentation would see -- control
transfers, executed instructions, produced values, and effective
addresses -- never the frontend's structured source.

Two engines share the event contract:

* ``engine="reference"`` -- the original per-instruction dispatch
  loop.  Deliberately straightforward; it is the executable
  specification the fast path is tested against.
* ``engine="fast"`` (default) -- runs the closure tables built by
  :mod:`repro.isa.compiler`: opcode dispatch, operand classification
  and observer/fuel bookkeeping are hoisted out of the per-instruction
  loop, and instruction events are delivered per *block* through
  :meth:`~repro.isa.events.Instrumentation.on_block` (which unbatches
  to ``on_instr`` for observers that don't override it).

Both engines produce identical events, statistics, and results for any
run that completes; on a faulting run the fast engine's statistics and
event stream are truncated at the same dynamic instruction, delivered
at block granularity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .events import CallEvent, Instrumentation, JumpEvent, ReturnEvent
from .instructions import (
    Call,
    CondBr,
    Halt,
    Instr,
    Jump,
    Return,
    eval_relation,
)
from .program import Function, Memory, Program

Number = Union[int, float]


class VMError(RuntimeError):
    pass


@dataclass
class _Frame:
    func: Function
    regs: Dict[str, Number]
    frame_id: int
    ret_dest: Optional[str]   # register in the *caller* receiving the value
    cont_bb: Optional[str]    # block in the caller to resume
    caller_index: int         # index of caller frame on the stack
    cont_cb: Optional[object] = None  # compiled continuation block (fast engine)


@dataclass
class RunStats:
    """Aggregate dynamic counts of one execution."""

    dyn_instrs: int = 0
    dyn_branches: int = 0
    dyn_calls: int = 0
    mem_ops: int = 0
    fp_ops: int = 0
    per_opcode: Counter = field(default_factory=Counter)

    @property
    def total_ops(self) -> int:
        return self.dyn_instrs + self.dyn_branches


class VM:
    """Interprets a program, driving instrumentation observers."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        observers: Sequence[Instrumentation] = (),
        fuel: int = 50_000_000,
        engine: str = "fast",
    ) -> None:
        if engine not in ("fast", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        program.validate()
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.observers: List[Instrumentation] = list(observers)
        self.fuel = fuel
        self.engine = engine
        self.stats = RunStats()
        self._next_frame_id = 0

    # -- public API -----------------------------------------------------------

    def run(self, args: Sequence[Number] = ()) -> Optional[Number]:
        """Run ``main(args...)``; returns main's return value."""
        main = self.program.function(self.program.main)
        if len(args) != len(main.params):
            raise VMError(
                f"main expects {len(main.params)} args, got {len(args)}"
            )
        frame = _Frame(
            func=main,
            regs=dict(zip(main.params, args)),
            frame_id=self._new_frame_id(),
            ret_dest=None,
            cont_bb=None,
            caller_index=-1,
        )
        stack: List[_Frame] = [frame]
        for ob in self.observers:
            ob.on_start(main.name, main.entry)
            ob.on_call(
                CallEvent(
                    caller=None,
                    callsite_bb=None,
                    callee=main.name,
                    dst_bb=main.entry,
                    frame_id=frame.frame_id,
                )
            )
            ob.on_jump(JumpEvent(main.name, None, main.entry))
        if self.engine == "fast":
            result = self._exec_fast(stack)
        else:
            result = self._exec(stack)
        for ob in self.observers:
            ob.on_halt()
        return result

    # -- internals --------------------------------------------------------------

    def _new_frame_id(self) -> int:
        self._next_frame_id += 1
        return self._next_frame_id

    def _operand(self, frame: _Frame, op) -> Number:
        if isinstance(op, str):
            try:
                return frame.regs[op]
            except KeyError:
                raise VMError(
                    f"read of undefined register {op!r} in {frame.func.name}"
                ) from None
        return op

    def _exec(self, stack: List[_Frame]) -> Optional[Number]:
        program = self.program
        memory = self.memory
        observers = self.observers
        stats = self.stats
        fuel = self.fuel

        frame = stack[-1]
        bb = frame.func.blocks[frame.func.entry]

        # Per-opcode tallies are accumulated per block execution and
        # merged into stats.per_opcode on exit (see the finally clause)
        # instead of paying two dict operations per dynamic instruction.
        block_execs: Dict[int, list] = {}
        n_done = 0  # instrs executed in the current, unaccounted block

        try:
            while True:
                if stats.dyn_instrs + stats.dyn_branches >= fuel:
                    raise VMError("out of fuel (infinite loop?)")
                for instr in bb.instrs:
                    if stats.dyn_instrs + stats.dyn_branches >= fuel:
                        raise VMError("out of fuel (infinite loop?)")
                    value, addr = self._exec_instr(instr, frame, memory)
                    stats.dyn_instrs += 1
                    n_done += 1
                    if instr.is_mem:
                        stats.mem_ops += 1
                    if instr.is_float:
                        stats.fp_ops += 1
                    for ob in observers:
                        ob.on_instr(instr, frame.frame_id, value, addr)
                if n_done:
                    entry = block_execs.get(id(bb))
                    if entry is None:
                        block_execs[id(bb)] = [bb, 1]
                    else:
                        entry[1] += 1
                    n_done = 0

                term = bb.terminator
                if isinstance(term, Jump):
                    for ob in observers:
                        ob.on_jump(
                            JumpEvent(frame.func.name, bb.name, term.target)
                        )
                    bb = frame.func.blocks[term.target]
                elif isinstance(term, CondBr):
                    stats.dyn_branches += 1
                    a = self._operand(frame, term.a)
                    b = self._operand(frame, term.b)
                    dst = (
                        term.taken
                        if eval_relation(term.rel, a, b)
                        else term.not_taken
                    )
                    for ob in observers:
                        ob.on_jump(JumpEvent(frame.func.name, bb.name, dst))
                    bb = frame.func.blocks[dst]
                elif isinstance(term, Call):
                    stats.dyn_calls += 1
                    callee = program.function(term.callee)
                    if len(term.args) != len(callee.params):
                        raise VMError(
                            f"call {frame.func.name}->{callee.name}: "
                            f"arity mismatch"
                        )
                    argvals = [self._operand(frame, a) for a in term.args]
                    new_frame = _Frame(
                        func=callee,
                        regs=dict(zip(callee.params, argvals)),
                        frame_id=self._new_frame_id(),
                        ret_dest=term.dest,
                        cont_bb=term.cont,
                        caller_index=len(stack) - 1,
                    )
                    for ob in observers:
                        ob.on_call(
                            CallEvent(
                                caller=frame.func.name,
                                callsite_bb=bb.name,
                                callee=callee.name,
                                dst_bb=callee.entry,
                                frame_id=new_frame.frame_id,
                                args=term.args,
                                dest=term.dest,
                            )
                        )
                    stack.append(new_frame)
                    frame = new_frame
                    bb = callee.blocks[callee.entry]
                elif isinstance(term, Return):
                    retval = (
                        self._operand(frame, term.value)
                        if term.value is not None
                        else None
                    )
                    popped = stack.pop()
                    if not stack:
                        for ob in observers:
                            ob.on_return(
                                ReturnEvent(
                                    callee=popped.func.name,
                                    caller=None,
                                    dst_bb=None,
                                    frame_id=popped.frame_id,
                                    value=term.value,
                                )
                            )
                        return retval
                    frame = stack[-1]
                    if popped.ret_dest is not None:
                        if retval is None:
                            raise VMError(
                                f"{popped.func.name} returned no value but "
                                f"caller expects one"
                            )
                        frame.regs[popped.ret_dest] = retval
                    for ob in observers:
                        ob.on_return(
                            ReturnEvent(
                                callee=popped.func.name,
                                caller=frame.func.name,
                                dst_bb=popped.cont_bb,
                                frame_id=popped.frame_id,
                                value=term.value,
                            )
                        )
                    bb = frame.func.blocks[popped.cont_bb]
                elif isinstance(term, Halt):
                    return None
                else:  # pragma: no cover
                    raise VMError(f"unknown terminator {term!r}")
        finally:
            per = stats.per_opcode
            for bb2, n in block_execs.values():
                for instr in bb2.instrs:
                    per[instr.opcode] += n
            if n_done:
                for instr in bb.instrs[:n_done]:
                    per[instr.opcode] += 1

    def _exec_fast(self, stack: List[_Frame]) -> Optional[Number]:
        """Run the block-compiled closure tables (see repro.isa.compiler).

        Statistics are kept in locals and merged into ``self.stats``
        on exit; per-opcode tallies are derived from per-block
        execution counts.  Instruction events are delivered per block
        via ``on_block``; observers overriding neither ``on_block`` nor
        ``on_instr`` cost nothing on the instruction path, and each
        control hook (``on_jump``/``on_call``/``on_return``) reaches
        only the observers that override it.
        """
        from .compiler import (
            T_CALL,
            T_CONDBR,
            T_HALT,
            T_JUMP,
            T_RETURN,
            compile_program,
        )

        compiled = compile_program(self.program)
        memory = self.memory
        observers = self.observers
        stats = self.stats
        fuel = self.fuel

        base_block = Instrumentation.on_block
        base_instr = Instrumentation.on_instr
        deliver = [
            ob.on_block
            for ob in observers
            if type(ob).on_block is not base_block
            or type(ob).on_instr is not base_instr
        ]

        def overriding(hook: str) -> list:
            base = getattr(Instrumentation, hook)
            return [
                getattr(ob, hook)
                for ob in observers
                if getattr(type(ob), hook) is not base
            ]

        # control events go only to observers that override the hook;
        # the events are frozen, so one instance serves every receiver
        jumpers = overriding("on_jump")
        callers = overriding("on_call")
        returners = overriding("on_return")

        frame = stack[-1]
        regs = frame.regs
        frame_id = frame.frame_id
        cb = compiled.funcs[frame.func.name].entry

        dyn_instrs = 0
        dyn_branches = 0
        dyn_calls = 0
        mem_ops = 0
        fp_ops = 0
        block_execs: Dict[int, list] = {}
        partial: Optional[Tuple] = None  # (block, #instrs done) on fault

        try:
            while True:
                if dyn_instrs + dyn_branches >= fuel:
                    raise VMError("out of fuel (infinite loop?)")
                n = cb.n_instrs
                if n:
                    values: List = []
                    addrs: List = []
                    av = values.append
                    aa = addrs.append
                    try:
                        for step in cb.steps:
                            v, a = step(regs, memory)
                            av(v)
                            aa(a)
                    except BaseException as e:
                        # Fault mid-block: account and deliver the
                        # instructions that did execute, then re-raise
                        # (KeyError = undefined register read).
                        k = len(values)
                        partial = (cb, k)
                        dyn_instrs += k
                        done = cb.instrs[:k]
                        for ins in done:
                            if ins.is_mem:
                                mem_ops += 1
                            if ins.is_float:
                                fp_ops += 1
                        if k and deliver:
                            for d in deliver:
                                d(done, frame_id, values, addrs)
                        if isinstance(e, KeyError):
                            raise VMError(
                                f"read of undefined register {e.args[0]!r} "
                                f"in {frame.func.name}"
                            ) from None
                        raise
                    entry = block_execs.get(id(cb))
                    if entry is None:
                        block_execs[id(cb)] = [cb, 1]
                    else:
                        entry[1] += 1
                    dyn_instrs += n
                    mem_ops += cb.mem_ops
                    fp_ops += cb.fp_ops
                    if deliver:
                        instrs = cb.instrs
                        for d in deliver:
                            d(instrs, frame_id, values, addrs)

                kind = cb.term_kind
                if kind == T_CONDBR:
                    dyn_branches += 1
                    try:
                        taken = cb.rel_fn(cb.br_a(regs), cb.br_b(regs))
                    except KeyError as e:
                        raise VMError(
                            f"read of undefined register {e.args[0]!r} "
                            f"in {frame.func.name}"
                        ) from None
                    if taken:
                        ev = cb.taken_event
                        nxt = cb.taken
                    else:
                        ev = cb.not_taken_event
                        nxt = cb.not_taken
                    for j in jumpers:
                        j(ev)
                    cb = nxt
                elif kind == T_JUMP:
                    ev = cb.jump_event
                    for j in jumpers:
                        j(ev)
                    cb = cb.jump_target
                elif kind == T_CALL:
                    dyn_calls += 1
                    callee = cb.call_callee
                    if not cb.call_arity_ok:
                        raise VMError(
                            f"call {frame.func.name}->{callee.name}: "
                            f"arity mismatch"
                        )
                    try:
                        argvals = [g(regs) for g in cb.call_arg_getters]
                    except KeyError as e:
                        raise VMError(
                            f"read of undefined register {e.args[0]!r} "
                            f"in {frame.func.name}"
                        ) from None
                    new_frame = _Frame(
                        func=callee.func,
                        regs=dict(zip(callee.params, argvals)),
                        frame_id=self._new_frame_id(),
                        ret_dest=cb.call_dest,
                        cont_bb=cb.call_cont,
                        caller_index=len(stack) - 1,
                        cont_cb=cb.call_cont_cb,
                    )
                    if callers:
                        ev = CallEvent(
                            caller=frame.func.name,
                            callsite_bb=cb.name,
                            callee=callee.name,
                            dst_bb=callee.func.entry,
                            frame_id=new_frame.frame_id,
                            args=cb.call_args,
                            dest=cb.call_dest,
                        )
                        for c in callers:
                            c(ev)
                    stack.append(new_frame)
                    frame = new_frame
                    regs = frame.regs
                    frame_id = frame.frame_id
                    cb = callee.entry
                elif kind == T_RETURN:
                    if cb.ret_getter is not None:
                        try:
                            retval = cb.ret_getter(regs)
                        except KeyError as e:
                            raise VMError(
                                f"read of undefined register {e.args[0]!r} "
                                f"in {frame.func.name}"
                            ) from None
                    else:
                        retval = None
                    popped = stack.pop()
                    if not stack:
                        if returners:
                            ev = ReturnEvent(
                                callee=popped.func.name,
                                caller=None,
                                dst_bb=None,
                                frame_id=popped.frame_id,
                                value=cb.ret_operand,
                            )
                            for r in returners:
                                r(ev)
                        return retval
                    frame = stack[-1]
                    regs = frame.regs
                    frame_id = frame.frame_id
                    if popped.ret_dest is not None:
                        if retval is None:
                            raise VMError(
                                f"{popped.func.name} returned no value but "
                                f"caller expects one"
                            )
                        regs[popped.ret_dest] = retval
                    if returners:
                        ev = ReturnEvent(
                            callee=popped.func.name,
                            caller=frame.func.name,
                            dst_bb=popped.cont_bb,
                            frame_id=popped.frame_id,
                            value=cb.ret_operand,
                        )
                        for r in returners:
                            r(ev)
                    cb = popped.cont_cb
                elif kind == T_HALT:
                    return None
                else:  # pragma: no cover
                    raise VMError(f"unknown terminator kind {kind!r}")
        finally:
            stats.dyn_instrs += dyn_instrs
            stats.dyn_branches += dyn_branches
            stats.dyn_calls += dyn_calls
            stats.mem_ops += mem_ops
            stats.fp_ops += fp_ops
            per = stats.per_opcode
            for cb2, cnt in block_execs.values():
                for op, c in cb2.opcode_counts.items():
                    per[op] += c * cnt
            if partial is not None:
                pb, k = partial
                for ins in pb.instrs[:k]:
                    per[ins.opcode] += 1

    def _exec_instr(
        self, instr: Instr, frame: _Frame, memory: Memory
    ) -> Tuple[Optional[Number], Optional[int]]:
        """Execute one instruction; returns (produced value, mem addr)."""
        op = instr.opcode
        regs = frame.regs

        if op == "const":
            v = instr.srcs[0]
            regs[instr.dest] = v
            return v, None
        if op == "mov":
            v = self._operand(frame, instr.srcs[0])
            regs[instr.dest] = v
            return v, None
        if op == "load":
            base = self._operand(frame, instr.srcs[0])
            addr = int(base) + instr.offset
            v = memory.load(addr)
            regs[instr.dest] = v
            return v, addr
        if op == "store":
            base = self._operand(frame, instr.srcs[0])
            addr = int(base) + instr.offset
            v = self._operand(frame, instr.srcs[1])
            memory.store(addr, v)
            return v, addr

        a = self._operand(frame, instr.srcs[0])
        b = self._operand(frame, instr.srcs[1]) if len(instr.srcs) > 1 else None

        if op == "add":
            v = a + b
        elif op == "sub":
            v = a - b
        elif op == "mul":
            v = a * b
        elif op == "div":
            # C semantics: truncate toward zero
            if b == 0:
                raise VMError("integer division by zero")
            q = abs(a) // abs(b)
            v = q if (a >= 0) == (b >= 0) else -q
        elif op == "mod":
            if b == 0:
                raise VMError("integer modulo by zero")
            q = abs(a) // abs(b)
            qq = q if (a >= 0) == (b >= 0) else -q
            v = a - b * qq
        elif op == "and":
            v = a & b
        elif op == "or":
            v = a | b
        elif op == "xor":
            v = a ^ b
        elif op == "shl":
            v = a << b
        elif op == "shr":
            v = a >> b
        elif op.startswith("cmp"):
            v = 1 if eval_relation(op[3:], a, b) else 0
        elif op == "fadd":
            v = float(a) + float(b)
        elif op == "fsub":
            v = float(a) - float(b)
        elif op == "fmul":
            v = float(a) * float(b)
        elif op == "fdiv":
            v = float(a) / float(b)
        elif op == "fneg":
            v = -float(a)
        elif op == "fabs":
            v = abs(float(a))
        elif op == "fsqrt":
            v = math.sqrt(a)
        elif op == "fexp":
            v = math.exp(min(a, 700.0))
        elif op == "flog":
            v = math.log(a)
        elif op == "fmin":
            v = min(float(a), float(b))
        elif op == "fmax":
            v = max(float(a), float(b))
        elif op == "itof":
            v = float(a)
        elif op == "ftoi":
            v = int(a)
        else:  # pragma: no cover
            raise VMError(f"unhandled opcode {op!r}")
        regs[instr.dest] = v
        return v, None


def run_program(
    program: Program,
    args: Sequence[Number] = (),
    memory: Optional[Memory] = None,
    observers: Sequence[Instrumentation] = (),
    fuel: int = 50_000_000,
    engine: str = "fast",
) -> Tuple[Optional[Number], RunStats]:
    """Convenience wrapper: run and return (result, stats)."""
    vm = VM(
        program, memory=memory, observers=observers, fuel=fuel, engine=engine
    )
    result = vm.run(args)
    return result, vm.stats
