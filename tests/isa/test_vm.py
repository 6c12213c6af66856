"""Unit tests for the VM: arithmetic, memory, calls, events, stats."""

import pytest

from repro.isa import (
    Instrumentation,
    Memory,
    ProgramBuilder,
    VMError,
    run_program,
)


def build_arith(op, a, b):
    pb = ProgramBuilder("t")
    with pb.function("main", []) as f:
        r = f._binop(op, a, b, "r")
        f.ret(r)
    return pb.build()


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,a,b,expect",
        [
            ("add", 2, 3, 5),
            ("sub", 2, 3, -1),
            ("mul", -4, 3, -12),
            ("div", 7, 2, 3),
            ("div", -7, 2, -3),  # C truncation toward zero
            ("div", 7, -2, -3),
            ("mod", 7, 2, 1),
            ("mod", -7, 2, -1),  # C semantics: sign of dividend
            ("and", 6, 3, 2),
            ("or", 6, 3, 7),
            ("xor", 6, 3, 5),
            ("shl", 3, 2, 12),
            ("shr", 12, 2, 3),
            ("cmplt", 1, 2, 1),
            ("cmpge", 1, 2, 0),
            ("fadd", 1.5, 2.0, 3.5),
            ("fmul", 1.5, 2.0, 3.0),
            ("fdiv", 3.0, 2.0, 1.5),
            ("fmin", 3.0, 2.0, 2.0),
            ("fmax", 3.0, 2.0, 3.0),
        ],
    )
    def test_binops(self, op, a, b, expect):
        result, _ = run_program(build_arith(op, a, b))
        assert result == expect

    def test_div_by_zero(self):
        with pytest.raises(VMError):
            run_program(build_arith("div", 1, 0))

    def test_unops(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            a = f.fsqrt(16.0)
            b = f.fneg(a)
            c = f.fabs(b)
            d = f.ftoi(c)
            f.ret(d)
        result, _ = run_program(pb.build())
        assert result == 4


class TestMemory:
    def test_load_store(self):
        mem = Memory()
        base = mem.alloc(4)
        pb = ProgramBuilder("t")
        with pb.function("main", ["A"]) as f:
            with f.loop(0, 4) as i:
                f.store("A", f.mul(i, i), index=i)
            acc = f.const(0, "acc")
            with f.loop(0, 4) as i:
                v = f.load("A", index=i)
                f.set(acc, f.add(acc, v))
            f.ret(acc)
        result, stats = run_program(pb.build(), args=[base], memory=mem)
        assert result == 0 + 1 + 4 + 9
        assert mem.read_array(base, 4) == [0, 1, 4, 9]
        assert stats.mem_ops == 8

    def test_fault_on_unmapped(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            v = f.load(0)
            f.ret(v)
        with pytest.raises(Exception):
            run_program(pb.build())

    def test_alloc_array(self):
        mem = Memory()
        base = mem.alloc_array([5, 6, 7])
        assert mem.read_array(base, 3) == [5, 6, 7]


class TestCalls:
    def test_simple_call(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            r = f.call("square", [7], want_result=True)
            f.ret(r)
        with pb.function("square", ["x"]) as f:
            f.ret(f.mul("x", "x"))
        result, stats = run_program(pb.build())
        assert result == 49
        assert stats.dyn_calls == 1

    def test_recursion_factorial(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            r = f.call("fact", [6], want_result=True)
            f.ret(r)
        with pb.function("fact", ["n"]) as f:
            h = f.if_begin("le", "n", 1)
            f.ret(1)
            f._start(f.fn.blocks[h.join])
            m = f.sub("n", 1)
            r = f.call("fact", [m], want_result=True)
            f.ret(f.mul("n", r))
        result, _ = run_program(pb.build())
        assert result == 720

    def test_register_isolation_across_frames(self):
        # callee writing a register named like the caller's must not leak
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            x = f.set(f.fresh_reg("x"), 10)
            f.call("clobber", [])
            f.ret(x)
        with pb.function("clobber", []) as f:
            f.set("%x1", 999)
            f.ret()
        result, _ = run_program(pb.build())
        assert result == 10


class TestControlFlow:
    def test_if_then_else(self):
        pb = ProgramBuilder("t")
        with pb.function("main", ["x"]) as f:
            out = f.set(f.fresh_reg("out"), 0)
            h = f.if_begin("lt", "x", 10)
            f.set(out, 1)
            f.if_else(h)
            f.set(out, 2)
            f.if_end(h)
            f.ret(out)
        assert run_program(pb.build(), args=[5])[0] == 1
        assert run_program(pb.build(), args=[15])[0] == 2

    def test_bottom_test_loop_runs_once(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            count = f.set(f.fresh_reg("n"), 0)
            with f.loop(5, 3, bottom_test=True) as i:  # 5 < 3 false, do-while
                f.set(count, f.add(count, 1))
            f.ret(count)
        assert run_program(pb.build())[0] == 1

    def test_while_loop(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            x = f.set(f.fresh_reg("x"), 1)
            w = f.while_begin()
            f.while_cond(w, "lt", x, 100)
            f.set(x, f.mul(x, 2))
            f.while_end(w)
            f.ret(x)
        assert run_program(pb.build())[0] == 128

    def test_triangular_loop(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            n = f.set(f.fresh_reg("n"), 0)
            with f.loop(0, 5) as i:
                with f.loop(0, i, rel="le") as j:
                    f.set(n, f.add(n, 1))
            f.ret(n)
        assert run_program(pb.build())[0] == 15

    def test_fuel_exhaustion(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            w = f.while_begin()
            f.while_cond(w, "eq", 0, 0)
            f.while_end(w)
            f.halt()
        with pytest.raises(VMError, match="fuel"):
            run_program(pb.build(), fuel=1000)


class TestEvents:
    def test_event_stream_shape(self):
        events = []

        class Rec(Instrumentation):
            def on_jump(self, e):
                events.append(("J", e.func, e.src_bb, e.dst_bb))

            def on_call(self, e):
                events.append(("C", e.caller, e.callee))

            def on_return(self, e):
                events.append(("R", e.callee, e.caller))

        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            f.call("leaf", [])
            f.halt()
        with pb.function("leaf", []) as f:
            f.ret()
        run_program(pb.build(), observers=[Rec()])
        assert ("C", None, "main") in events
        assert ("C", "main", "leaf") in events
        assert ("R", "leaf", "main") in events

    def test_instr_events_carry_addresses(self):
        seen = []

        class Rec(Instrumentation):
            def on_instr(self, instr, frame_id, value, addr):
                if instr.is_mem:
                    seen.append((instr.opcode, addr, value))

        mem = Memory()
        base = mem.alloc(2)
        pb = ProgramBuilder("t")
        with pb.function("main", ["A"]) as f:
            f.store("A", 42, index=1)
            v = f.load("A", index=1)
            f.ret(v)
        run_program(pb.build(), args=[base], memory=mem, observers=[Rec()])
        assert seen == [("store", base + 1, 42), ("load", base + 1, 42)]

    def test_stats(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            with f.loop(0, 10) as i:
                f.fadd(1.0, 2.0)
            f.halt()
        _, stats = run_program(pb.build())
        assert stats.fp_ops == 10
        assert stats.dyn_branches == 11  # 10 taken + 1 exit test
        assert stats.total_ops > 20


class TestValidation:
    def test_unterminated_function_rejected(self):
        pb = ProgramBuilder("t")
        with pytest.raises(ValueError, match="not terminated"):
            with pb.function("main", []) as f:
                f.add(1, 2)

    def test_unknown_callee_rejected(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            f.call("ghost", [])
            f.halt()
        with pytest.raises(ValueError, match="unknown function"):
            pb.build()

    def test_arity_mismatch(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            f.call("g", [1, 2], want_result=False)
            f.halt()
        with pb.function("g", ["x"]) as f:
            f.ret()
        with pytest.raises(ValueError, match="arity"):
            pb.build()

    def test_undefined_register_read(self):
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            f.emit("add", ["%undef", 1], dest="%y")
            f.ret("%y")
        with pytest.raises(VMError, match="undefined register"):
            run_program(pb.build())


class TestControlHookDispatch:
    """The fast engine delivers ``on_jump``/``on_call``/``on_return``
    only to observers that override them."""

    @staticmethod
    def _calls_program():
        pb = ProgramBuilder("t")
        with pb.function("main", []) as f:
            with f.loop(0, 5):
                f.call("leaf", [])
            f.halt()
        with pb.function("leaf", []) as f:
            f.ret()
        return pb.build()

    def test_block_only_observer_gets_no_control_events(self, monkeypatch):
        seen = []
        for hook in ("on_jump", "on_call", "on_return"):
            monkeypatch.setattr(
                Instrumentation, hook,
                lambda self, e, hook=hook: seen.append((hook, type(self))),
            )

        class BlockOnly(Instrumentation):
            blocks = 0

            def on_block(self, instrs, frame_id, values, addrs):
                self.blocks += 1

        def hooks(engine):
            seen.clear()
            ob = BlockOnly()
            run_program(self._calls_program(), observers=[ob], engine=engine)
            return ob, [h for h, t in seen if t is BlockOnly]

        # the reference engine calls every hook on every observer
        _, reference = hooks("reference")
        assert {"on_jump", "on_call", "on_return"} <= set(reference)
        # the fast engine only sends the synthetic entry into main,
        # which VM.run delivers to every observer on both engines
        ob, fast = hooks("fast")
        assert ob.blocks > 0
        assert fast == ["on_call", "on_jump"]

    def test_overriding_observers_see_the_reference_stream(self):
        def stream(engine):
            events = []

            class Rec(Instrumentation):
                def on_jump(self, e):
                    events.append(e)

                def on_call(self, e):
                    events.append(e)

                def on_return(self, e):
                    events.append(e)

            class BlockOnly(Instrumentation):
                def on_block(self, instrs, frame_id, values, addrs):
                    pass

            run_program(
                self._calls_program(),
                observers=[BlockOnly(), Rec(), BlockOnly()],
                engine=engine,
            )
            return events

        fast = stream("fast")
        assert fast == stream("reference")
        assert sum(type(e).__name__ == "ReturnEvent" for e in fast) == 5
