"""Program/state JSON codec: round-trips must preserve fingerprints."""

import json

import pytest

from repro.isa import Memory, ProgramBuilder
from repro.isa.fingerprint import fingerprint_program, fingerprint_state
from repro.isa.progjson import (
    PROGJSON_VERSION,
    decode_program,
    decode_state,
    encode_program,
    encode_state,
    spec_from_documents,
)


def build_sample():
    pb = ProgramBuilder("sample")
    with pb.function("scale", ["p", "k"]) as f:
        v = f.load("p", index=0)
        f.store("p", f.mul(v, "k"), index=0)
        f.ret()
    with pb.function("main", ["a", "n"]) as f:
        with f.loop(0, "n") as i:
            v = f.load("a", index=i)
            f.store("a", f.add(v, 1.5), index=i)
        f.call("scale", ["a", 3])
        f.halt()
    return pb.build()


def build_state():
    memory = Memory()
    base = memory.alloc(8, 0)
    for k in range(8):
        memory.store(base + k, k * 2)
    return [base, 8], memory


class TestProgramRoundTrip:
    def test_fingerprint_preserved(self):
        program = build_sample()
        doc = encode_program(program)
        # force a real serialization boundary, like the HTTP body
        wire = json.loads(json.dumps(doc))
        decoded = decode_program(wire)
        assert fingerprint_program(decoded) == fingerprint_program(program)

    def test_structure_preserved(self):
        program = build_sample()
        decoded = decode_program(encode_program(program))
        assert decoded.name == program.name
        assert decoded.main == program.main
        assert set(decoded.functions) == set(program.functions)
        for name, fn in program.functions.items():
            dfn = decoded.functions[name]
            assert dfn.params == fn.params
            assert dfn.entry == fn.entry
            assert list(dfn.blocks) == list(fn.blocks)

    def test_executes_identically(self):
        from repro.isa import run_program

        program = build_sample()
        decoded = decode_program(encode_program(program))
        args1, mem1 = build_state()
        args2, mem2 = build_state()
        out1 = run_program(program, args1, mem1, [], fuel=100_000)
        out2 = run_program(decoded, args2, mem2, [], fuel=100_000)
        assert mem1.state_items() == mem2.state_items()
        assert type(out1) is type(out2)

    def test_wrong_version_rejected(self):
        doc = encode_program(build_sample())
        doc["progjson"] = PROGJSON_VERSION + 1
        with pytest.raises(ValueError, match="unsupported progjson"):
            decode_program(doc)

    def test_duplicate_block_rejected(self):
        doc = encode_program(build_sample())
        blocks = doc["functions"][0]["blocks"]
        blocks.append(dict(blocks[0]))
        with pytest.raises(ValueError, match="duplicate block"):
            decode_program(doc)

    def test_malformed_program_fails_validation(self):
        doc = encode_program(build_sample())
        doc["functions"][0]["blocks"][0]["term"] = {
            "op": "jump",
            "target": "no_such_block",
        }
        with pytest.raises(Exception):
            decode_program(doc)


class TestStateRoundTrip:
    def test_fingerprint_preserved(self):
        args, memory = build_state()
        doc = json.loads(json.dumps(encode_state(args, memory)))
        args2, memory2 = decode_state(doc)
        assert args2 == args
        assert fingerprint_state(args2, memory2) == fingerprint_state(
            args, memory
        )

    def test_fresh_memory_per_decode(self):
        args, memory = build_state()
        doc = encode_state(args, memory)
        _, m1 = decode_state(doc)
        _, m2 = decode_state(doc)
        m1.store(next(iter(m1.state_items()[1]))[0], 999)
        assert m1.state_items() != m2.state_items()

    def test_reserved_address_rejected(self):
        with pytest.raises(ValueError, match="reserved address"):
            decode_state({"args": [], "next": 16, "words": [[3, 1]]})

    def test_frontier_covers_all_words(self):
        _, memory = decode_state(
            {"args": [], "next": 16, "words": [[100, 7]]}
        )
        # a fresh alloc must not collide with decoded words
        addr = memory.alloc(1, 0)
        assert addr > 100


class TestSpecFromDocuments:
    def test_spec_keys_match_original(self):
        """An inline submission must cache/dedup exactly like the same
        program submitted as a registered workload would."""
        from repro.pipeline import ProgramSpec
        from repro.store import keys_for_spec

        program = build_sample()
        args, memory = build_state()
        native = ProgramSpec(
            name="sample",
            program=program,
            make_state=build_state,
            description="native",
        )
        inline = spec_from_documents(
            encode_program(program),
            encode_state(args, memory),
            name="sample",
        )
        opts = dict(
            fuel=50_000_000,
            clamp=None,
        )
        assert keys_for_spec(native, **opts) == keys_for_spec(
            inline, **opts
        )

    def test_state_doc_optional(self):
        pb = ProgramBuilder("selfcontained")
        with pb.function("main", []) as f:
            f.set("x", 1)
            f.halt()
        spec = spec_from_documents(encode_program(pb.build()), None)
        args, memory = spec.make_state()
        assert args == []
        assert memory.state_items()[1] == []

    def test_invalid_program_raises_at_boundary(self):
        with pytest.raises(Exception):
            spec_from_documents({"progjson": PROGJSON_VERSION}, None)
