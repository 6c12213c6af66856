"""Program containers: functions, basic blocks, and (static) programs.

A :class:`Program` is the unit the whole pipeline operates on -- the
stand-in for a compiled binary.  Static structure here is deliberately
minimal: the profiler *discovers* CFGs and the call graph dynamically
(paper section 3); the static containers only exist so the VM can run
the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .instructions import RELATIONS, Call, CondBr, Instr, Terminator


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence plus a terminator."""

    name: str
    instrs: List[Instr] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def successors(self) -> Tuple[str, ...]:
        if self.terminator is None:
            raise ValueError(f"block {self.name} has no terminator")
        return self.terminator.successors()

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self.instrs)} instrs, {self.terminator})"


@dataclass
class Function:
    """A function: named parameters plus a block graph with one entry.

    ``src_loop_depth`` records the *source-level* maximal loop nesting
    depth inside the function body, as written in the frontend; the
    paper's Table 5 compares this (``ld-src``) with the loop depth
    recovered from the binary (``ld-bin``).
    """

    name: str
    params: Tuple[str, ...]
    entry: str = "entry"
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    src_loop_depth: int = 0
    src_file: Optional[str] = None

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def add_block(self, name: str) -> BasicBlock:
        if name in self.blocks:
            raise ValueError(f"duplicate block {name!r} in {self.name}")
        bb = BasicBlock(name)
        self.blocks[name] = bb
        return bb

    def validate(self) -> None:
        for bb in self.blocks.values():
            if bb.terminator is None:
                raise ValueError(f"{self.name}/{bb.name}: missing terminator")
            for succ in bb.successors():
                if succ not in self.blocks:
                    raise ValueError(
                        f"{self.name}/{bb.name}: unknown successor {succ!r}"
                    )
        if self.entry not in self.blocks:
            raise ValueError(f"{self.name}: missing entry block {self.entry!r}")


@dataclass
class Program:
    """A set of functions with a designated ``main``."""

    functions: Dict[str, Function] = field(default_factory=dict)
    main: str = "main"
    name: str = "program"

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def function(self, name: str) -> Function:
        return self.functions[name]

    def validate(self) -> None:
        if self.main not in self.functions:
            raise ValueError(f"missing main function {self.main!r}")
        seen_uids: Dict[int, str] = {}
        for fn in self.functions.values():
            fn.validate()
            for bb in fn.blocks.values():
                for ins in bb.instrs:
                    owner = seen_uids.get(ins.uid)
                    if owner is not None:
                        raise ValueError(
                            f"{fn.name}/{bb.name}: duplicate uid {ins.uid} "
                            f"(already used in {owner})"
                        )
                    seen_uids[ins.uid] = fn.name
                if isinstance(bb.terminator, Call):
                    call = bb.terminator
                    if call.callee not in self.functions:
                        raise ValueError(
                            f"{fn.name}/{bb.name}: call to unknown function "
                            f"{call.callee!r}"
                        )
                    callee = self.functions[call.callee]
                    if len(call.args) != len(callee.params):
                        raise ValueError(
                            f"{fn.name}/{bb.name}: call to {call.callee!r} "
                            f"arity mismatch: {len(call.args)} argument(s) "
                            f"for {len(callee.params)} parameter(s)"
                        )
                elif isinstance(bb.terminator, CondBr):
                    if bb.terminator.rel not in RELATIONS:
                        raise ValueError(
                            f"{fn.name}/{bb.name}: unknown relation "
                            f"{bb.terminator.rel!r}"
                        )
        # A validated program is executable: pre-translate its blocks
        # into the fast engine's closure tables (cached on the program,
        # so revalidation is free).
        from .compiler import compile_program

        compile_program(self)

    def all_instrs(self) -> Iterator[Tuple[Function, BasicBlock, Instr]]:
        for fn in self.functions.values():
            for bb in fn.blocks.values():
                for ins in bb.instrs:
                    yield fn, bb, ins

    def instr_count(self) -> int:
        return sum(1 for _ in self.all_instrs())


class Memory:
    """Flat word-addressed memory with a bump allocator.

    One "word" holds one Python number.  Addresses are plain ints, so
    address arithmetic in the program is ordinary integer arithmetic --
    visible to the profiler exactly as in a real binary.
    """

    def __init__(self, size_hint: int = 0) -> None:
        self._data: Dict[int, object] = {}
        self._next = 16  # keep 0..15 unmapped: null-ish addresses fault

    def alloc(self, n: int, init: object = 0) -> int:
        """Allocate ``n`` consecutive words, return the base address."""
        if n < 0:
            raise ValueError("negative allocation")
        base = self._next
        self._next += n
        for i in range(n):
            self._data[base + i] = init
        return base

    def alloc_array(self, values) -> int:
        base = self._next
        self._next += len(values)
        for i, v in enumerate(values):
            self._data[base + i] = v
        return base

    def load(self, addr: int):
        try:
            return self._data[addr]
        except KeyError:
            raise MemoryFault(addr) from None

    def store(self, addr: int, value) -> None:
        if addr < 16:
            raise MemoryFault(addr)
        self._data[addr] = value

    def read_array(self, base: int, n: int) -> List[object]:
        return [self.load(base + i) for i in range(n)]

    def state_items(self) -> Tuple[int, List[Tuple[int, object]]]:
        """The full observable state: the bump-allocator frontier plus
        every allocated ``(address, value)`` pair in address order.
        This is what :func:`repro.isa.fingerprint.fingerprint_state`
        hashes to content-address cached analysis artifacts."""
        return self._next, sorted(self._data.items())


class MemoryFault(RuntimeError):
    def __init__(self, addr: int) -> None:
        super().__init__(f"memory fault at address {addr}")
        self.addr = addr
