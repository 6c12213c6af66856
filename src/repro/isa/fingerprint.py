"""Canonical content hashing of programs and initial machine state.

The artifact store (:mod:`repro.store`) keys cached analysis artifacts
by *what was analyzed*: the :class:`~repro.isa.program.Program` IR and
the initial ``(args, memory)`` state a workload's ``make_state``
produces.  Both are hashed through an explicit canonical byte
encoding -- never ``pickle`` or ``repr`` of whole containers -- so the
digest is stable across processes, Python versions, and dict insertion
orders, and so that *every* semantic detail (uids, opcodes, operand
types, immediates, terminators, debug lines) lands in the hash.  Two
programs differing in any instruction, block name, or source line get
different digests; re-running the same workload factory twice gets the
same digest (workload state is deterministic by construction).

Floats are encoded via ``float.hex()`` (exact, round-trippable);
operands are type-tagged so ``1`` (int), ``1.0`` (float), and ``"1"``
(register name) hash differently.

:func:`program_digests` computes, in the same traversal, a second
**canonical** digest that names each instruction by its function-local
ordinal instead of its uid.  The store keys its ``cp-``/``ddg-``
artifacts by it, whose payloads are uid-free: a program that differs
from an analyzed one only in its uid numbering or function listing
order (a *twin*) is then an ordinary warm hit.

Beyond the whole-program digest, this module emits **per-function
canonical fingerprints** for the incremental-analysis subsystem
(:mod:`repro.incr`):

* function boundaries in the token stream are tagged explicitly with
  length-prefixed ``func[<len>]:<name>`` headers and an ``end`` marker,
  so adjacent functions can never concatenate ambiguously (a name or
  field containing ``\\n``/``:`` cannot forge a boundary -- the prefix
  pins how many bytes belong to the name);
* :func:`function_fingerprint` hashes one function *canonically*:
  global instruction uids are replaced by function-local ordinals and
  the function's own name is omitted, so the fingerprint is invariant
  under renaming the function and under re-numbering/reordering other
  functions in the program -- exactly the invariance the program
  differ aligns regions by;
* :func:`transitive_fingerprints` folds a function's callees' hashes
  into its own over the call-graph SCC condensation, so an edit deep
  in a call chain changes the transitive hash of everything above it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .instructions import Call, CondBr, Halt, Jump, Return
from .program import Function, Memory, Program


def _token(value: object) -> str:
    """Type-tagged canonical token for one operand / memory word."""
    if isinstance(value, bool):  # bool is an int subclass: tag first
        return f"b:{int(value)}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value.hex()}"
    if isinstance(value, str):
        return f"s:{value}"
    if value is None:
        return "n"
    raise TypeError(f"unhashable state value of type {type(value).__name__}")


def _terminator_tokens(term: object) -> Iterable[str]:
    if isinstance(term, Jump):
        yield f"jump>{term.target}"
    elif isinstance(term, CondBr):
        yield (
            f"br:{term.rel}:{_token(term.a)}:{_token(term.b)}"
            f">{term.taken}|{term.not_taken}"
        )
    elif isinstance(term, Call):
        args = ",".join(_token(a) for a in term.args)
        yield f"call:{term.callee}({args})->{_token(term.dest)}>{term.cont}"
    elif isinstance(term, Return):
        yield f"ret:{_token(term.value)}"
    elif isinstance(term, Halt):
        yield "halt"
    elif term is None:
        yield "none"
    else:  # pragma: no cover - exhaustive over the terminator union
        raise TypeError(f"unknown terminator {type(term).__name__}")


def function_uid_ordinals(fn: Function) -> Dict[int, int]:
    """Global uid -> function-local ordinal, in canonical traversal
    order (sorted blocks, instruction order within each block).

    The ordinal of an instruction depends only on the function's own
    content, never on where the function sits in the program or how
    the frontend numbered it -- the basis of position-independent
    function fingerprints and of re-mapping cached per-function regions
    onto a re-numbered program.
    """
    ordinals: Dict[int, int] = {}
    for bname in sorted(fn.blocks):
        for ins in fn.blocks[bname].instrs:
            ordinals[ins.uid] = len(ordinals)
    return ordinals


def function_ordered_uids(fn: Function) -> List[int]:
    """Function-local ordinal -> global uid (inverse of
    :func:`function_uid_ordinals`)."""
    uids: List[int] = []
    for bname in sorted(fn.blocks):
        for ins in fn.blocks[bname].instrs:
            uids.append(ins.uid)
    return uids


def _function_token_pairs(
    fn: Function, name: Optional[str] = None
) -> Iterable[Tuple[str, str]]:
    """The (exact, canonical) token pairs of one function, in hashing
    order.

    The two streams differ only in instruction tokens: the exact token
    names the instruction's global uid, the canonical one its
    function-local ordinal -- the position this traversal (sorted
    blocks, instruction order within each block) gives it, which is
    exactly :func:`function_uid_ordinals`.
    """
    hashed_name = fn.name if name is None else name
    header = (
        f"func[{len(hashed_name)}]:{hashed_name}"
        f":params={','.join(fn.params)}"
        f":entry={fn.entry}:ld={fn.src_loop_depth}"
        f":file={fn.src_file or ''}"
    )
    yield header, header
    ordinal = 0
    for bname in sorted(fn.blocks):
        bb = fn.blocks[bname]
        tok = f"block[{len(bname)}]:{bname}"
        yield tok, tok
        for ins in bb.instrs:
            srcs = ",".join(_token(s) for s in ins.srcs)
            body = (
                f"{ins.opcode}:{_token(ins.dest)}"
                f":[{srcs}]:off={ins.offset}:line={ins.src_line}"
            )
            yield f"instr:{ins.uid}:{body}", f"instr:{ordinal}:{body}"
            ordinal += 1
        for tok in _terminator_tokens(bb.terminator):
            yield tok, tok
    yield "end", "end"


def function_tokens(
    fn: Function,
    canonical: bool = False,
    name: Optional[str] = None,
) -> Iterable[str]:
    """The canonical token stream of one function.

    The header is length-prefixed (``func[<len>]:<name>:...``) so the
    name can never be confused with the fields that follow it, and the
    stream is closed by an ``end`` marker -- per-function splitting of
    a program stream is unambiguous even for adversarial names.

    ``canonical`` names each instruction by its function-local ordinal
    instead of its uid; ``name`` overrides the hashed name (the
    per-function fingerprint passes ``""`` to be rename-invariant).
    """
    side = int(canonical)
    for pair in _function_token_pairs(fn, name):
        yield pair[side]


def _program_token_pairs(program: Program) -> Iterable[Tuple[str, str]]:
    head = f"program:{program.name}:main={program.main}"
    yield head, head
    for fname in sorted(program.functions):
        yield from _function_token_pairs(program.functions[fname])


def program_tokens(program: Program) -> Iterable[str]:
    """The exact token stream of one program (hashing order)."""
    for exact, _canonical in _program_token_pairs(program):
        yield exact


def _digest_tokens(tokens: Iterable[str]) -> str:
    """sha256 of the tokens, each terminated by a newline."""
    text = "".join(tok + "\n" for tok in tokens)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_program(program: Program) -> str:
    """Stable content digest (hex sha256) of a program's full IR."""
    return _digest_tokens(program_tokens(program))


def program_digests(program: Program) -> Tuple[str, str]:
    """(exact, canonical) digests of a program, in one traversal.

    The exact digest is :func:`fingerprint_program`.  The canonical
    one hashes the same stream with every uid replaced by its
    function-local ordinal, so it is invariant under shifting,
    permuting or renumbering uids and (functions being hashed in name
    order) under the order functions are listed in; every other field
    -- the program name, ``main``, function and block names, every
    instruction field, terminators -- still lands in it.
    """
    pairs = list(_program_token_pairs(program))
    return (
        _digest_tokens(a for a, _ in pairs),
        _digest_tokens(b for _, b in pairs),
    )


def function_fingerprint(fn: Function) -> str:
    """Canonical content digest of one function.

    Invariant under renaming the function (its own name is not hashed;
    references to *other* functions in call terminators are) and under
    global uid re-numbering (uids are replaced by function-local
    ordinals).  Any body change -- instructions, operands, block names,
    terminators, params, source lines -- changes the digest.
    """
    return _digest_tokens(function_tokens(fn, canonical=True, name=""))


def function_fingerprints(program: Program) -> Dict[str, str]:
    """Canonical per-function fingerprints of every function."""
    return {
        name: function_fingerprint(fn)
        for name, fn in program.functions.items()
    }


def block_fingerprints(fn: Function) -> Dict[str, str]:
    """Canonical per-basic-block digests of one function.

    Ordinals are *block-local* (position within the block), not
    function-local: an edit to one block must not ripple into the
    digests of every later block, or the differ's ``blocks_changed``
    diagnostics would name the whole tail of the function."""

    def block_tokens(bname: str) -> Iterable[str]:
        bb = fn.blocks[bname]
        yield f"block[{len(bname)}]:{bname}"
        for o, ins in enumerate(bb.instrs):
            srcs = ",".join(_token(s) for s in ins.srcs)
            yield (
                f"instr:{o}:{ins.opcode}:{_token(ins.dest)}"
                f":[{srcs}]:off={ins.offset}:line={ins.src_line}"
            )
        yield from _terminator_tokens(bb.terminator)

    return {bname: _digest_tokens(block_tokens(bname)) for bname in fn.blocks}


def static_callees(fn: Function) -> Set[str]:
    """Function names this function may call (calls terminate blocks
    in the mini-ISA, so scanning terminators is exhaustive)."""
    out: Set[str] = set()
    for bb in fn.blocks.values():
        if isinstance(bb.terminator, Call):
            out.add(bb.terminator.callee)
    return out


def _call_sccs(program: Program) -> List[List[str]]:
    """Strongly connected components of the static call graph, in
    reverse topological order (callees before callers).  Iterative
    Tarjan -- call chains can be deeper than the recursion limit."""
    names = sorted(program.functions)
    callees = {
        n: sorted(
            c for c in static_callees(program.functions[n])
            if c in program.functions
        )
        for n in names
    }
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in names:
        if root in index:
            continue
        work: List[tuple] = [(root, iter(callees[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(callees[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    scc.append(m)
                    if m == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def transitive_fingerprints(
    program: Program, local: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Call-graph-aware effective hashes: a function's transitive
    fingerprint folds in the transitive fingerprints of everything it
    can reach, so editing a leaf changes the hash of every (transitive)
    caller.  Recursive cycles hash as a unit: every member of an SCC
    folds in the sorted local hashes of the whole component plus the
    transitive hashes of the component's external callees.
    """
    local = local if local is not None else function_fingerprints(program)
    trans: Dict[str, str] = {}
    for scc in _call_sccs(program):
        members = set(scc)
        external: List[str] = []
        for name in scc:
            for c in sorted(static_callees(program.functions[name])):
                if c in members:
                    continue
                # undefined callees hash by name only (validate() bans
                # them in runnable programs; fingerprints stay total)
                external.append(trans.get(c, f"undef[{len(c)}]:{c}"))
        external.sort()
        recursive = len(scc) > 1 or scc[0] in static_callees(
            program.functions[scc[0]]
        )
        if not recursive:
            name = scc[0]
            trans[name] = _digest_tokens(["fn", local[name], *external])
        else:
            unit = _digest_tokens(
                ["scc", *sorted(local[n] for n in scc), *external]
            )
            for name in scc:
                trans[name] = _digest_tokens(["rec", local[name], unit])
    return trans


def fingerprint_state(args: Sequence, memory: Memory) -> str:
    """Stable content digest of one initial ``(args, memory)`` state.

    Hashes the program arguments and the *entire* observable memory
    image (allocated words and the bump-allocator frontier), so any
    change to workload input data invalidates cached artifacts.
    """
    h = hashlib.sha256()
    h.update(b"args\n")
    for a in args:
        h.update(_token(a).encode("utf-8"))
        h.update(b"\n")
    next_addr, items = memory.state_items()
    h.update(f"mem:{next_addr}\n".encode("utf-8"))
    for addr, value in items:
        h.update(f"{addr}={_token(value)}\n".encode("utf-8"))
    return h.hexdigest()
