"""Twins served from their baseline's artifacts (``identical`` mode).

A twin is a program whose diff against its baseline is all-unchanged:
its uids are shifted or permuted, or its functions are listed in
another order.  Nothing executes; the baseline's stored stage-2
payload is decoded against the twin, dependence vectors included, and
the baseline's ``cp-``/``ddg-`` objects are copied under the twin's
keys.  Everything the twin renders must equal a store-less cold
analysis of it, byte for byte.
"""

import json
from dataclasses import replace

import pytest

from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.incr import renumbered_spec
from repro.isa import fingerprint_program
from repro.isa.program import BasicBlock, Function, Program
from repro.pipeline import analyze
from repro.schedule.deps import analyze_deps
from repro.store import (
    ArtifactStore,
    decode_control_profile,
    decode_stage2,
    encode_control_profile,
    encode_stage2,
    keys_for_spec,
)
from repro.workloads import all_workloads

FUEL = 50_000_000


def _spec():
    return all_workloads()["kmeans"]()


def _rebuild(program: Program, uid_of, order) -> Program:
    """A fresh copy of ``program`` with uids mapped through ``uid_of``
    and its functions listed in ``order``."""
    functions = {}
    for fname in order:
        fn = program.functions[fname]
        functions[fname] = Function(
            name=fn.name,
            params=tuple(fn.params),
            entry=fn.entry,
            blocks={
                bname: BasicBlock(
                    name=bb.name,
                    instrs=[
                        replace(ins, uid=uid_of(ins.uid)) for ins in bb.instrs
                    ],
                    terminator=bb.terminator,
                )
                for bname, bb in fn.blocks.items()
            },
            src_loop_depth=fn.src_loop_depth,
            src_file=fn.src_file,
        )
    twin = Program(functions=functions, main=program.main, name=program.name)
    twin.validate()
    return twin


def _permuted(spec):
    """Every uid swapped with its mirror in sorted order, so the
    canonical order of statements and dependences changes."""
    program = spec.program
    uids = sorted(ins.uid for _f, _b, ins in program.all_instrs())
    mirror = dict(zip(uids, reversed(uids)))
    return replace(
        spec,
        program=_rebuild(program, mirror.__getitem__, program.functions),
    )


def _reordered(spec):
    """The functions listed in reverse and numbered afresh in that
    order, as a frontend emitting them in that order would: the
    fingerprint ignores the listing order alone, but not the uids."""
    program = spec.program
    order = list(reversed(list(program.functions)))
    uids = sorted(ins.uid for _f, _b, ins in program.all_instrs())
    renumber = dict(
        zip(
            (
                ins.uid
                for fname in order
                for bb in program.functions[fname].blocks.values()
                for ins in bb.instrs
            ),
            uids,
        )
    )
    return replace(
        spec, program=_rebuild(program, renumber.__getitem__, order)
    )


TWINS = {
    "offset1000": lambda spec: renumbered_spec(spec, offset=1000),
    "offset7000": lambda spec: renumbered_spec(spec, offset=7000),
    "permuted": _permuted,
    "reordered": _reordered,
}


def _docs(result):
    return (
        render_json(report_document(result)),
        render_json(metrics_document(result)),
    )


def _keys(spec):
    return keys_for_spec(spec, fuel=FUEL, clamp=None)


def _raw(store, key):
    with open(store.path_of(key), "rb") as fh:
        return fh.read()


def _canonical(spec, store, keys):
    """The stored stage-1 and stage-2 payloads of ``spec``, decoded and
    re-encoded against its program, without the fields that differ
    from run to run."""
    cp = encode_control_profile(
        decode_control_profile(store.get(keys.stage1))
    )
    folded, ddgp, vectors = decode_stage2(store.get(keys.stage2), spec.program)
    ddg = encode_stage2(spec.program, folded, ddgp, vectors)
    for payload in (cp, ddg):
        del payload["wall_seconds"], payload["stats"]
    return json.dumps(cp), json.dumps(ddg)


def _vector_fields(dv):
    return (
        dv.dep.key, dv.src_path, dv.dst_path, dv.common, dv.signs,
        dv.bounds, dv.is_reduction,
    )


@pytest.fixture(scope="module")
def baseline_store(tmp_path_factory):
    """A store holding the baseline's analysis, copied per test."""
    root = tmp_path_factory.mktemp("baseline")
    analyze(_spec(), store=ArtifactStore(str(root)))
    return root


@pytest.fixture
def store(baseline_store, tmp_path):
    import shutil

    shutil.copytree(baseline_store, tmp_path / "store")
    return ArtifactStore(str(tmp_path / "store"))


@pytest.mark.parametrize("twin_name", list(TWINS))
def test_twin_is_served_from_the_baseline(store, tmp_path, twin_name):
    base = _spec()
    twin = TWINS[twin_name](_spec())
    baseline = fingerprint_program(base.program)
    assert fingerprint_program(twin.program) != baseline

    inc = analyze(twin, store=store, baseline=baseline)
    assert inc.incremental.mode == "identical", inc.incremental.as_dict()

    cold = analyze(TWINS[twin_name](_spec()))
    assert _docs(inc) == _docs(cold)

    # the decoded vectors are exactly what the feedback stage computes
    want = analyze_deps(inc.folded)
    assert [_vector_fields(dv) for dv in inc.forest.deps] == [
        _vector_fields(dv) for dv in want
    ]
    assert all(dv.dep is inc.folded.deps[dv.dep.key] for dv in inc.forest.deps)

    # the copied objects decode to what a cold stored run writes
    keys, base_keys = _keys(twin), _keys(base)
    cold_store = ArtifactStore(str(tmp_path / "cold"))
    analyze(TWINS[twin_name](_spec()), store=cold_store)
    assert _canonical(twin, store, keys) == _canonical(twin, cold_store, keys)
    if twin_name.startswith("offset"):
        for key, base_key in (
            (keys.stage1, base_keys.stage1), (keys.stage2, base_keys.stage2),
        ):
            assert _raw(store, key) == _raw(store, base_key)

    # and a later plain warm hit on the twin renders the same bytes
    warm = analyze(TWINS[twin_name](_spec()), store=store)
    assert warm.timings.cache_hit
    assert _docs(warm) == _docs(cold)


def test_identical_mode_recomputes_and_re_encodes_nothing(store, monkeypatch):
    import repro.incr
    import repro.incr.regions
    import repro.schedule.deps
    import repro.schedule.nest
    import repro.store
    import repro.store.artifacts

    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called in identical mode")

        return called

    for module, name in (
        (repro.schedule.nest, "analyze_deps"),
        (repro.schedule.deps, "analyze_deps"),
        (repro.incr.regions, "encode_regions"),
        (repro.incr, "encode_regions"),
        (repro.store, "encode_control_profile"),
        (repro.store.artifacts, "encode_control_profile"),
    ):
        monkeypatch.setattr(module, name, spy(name))
    inc = analyze(
        renumbered_spec(_spec(), offset=1000),
        store=store,
        baseline=fingerprint_program(_spec().program),
    )
    assert inc.incremental.mode == "identical"
    assert calls == []


def test_baseline_stage2_gone_before_the_put_falls_back_to_encoding(
    store, monkeypatch
):
    """The baseline's ``ddg-`` vanishes between planning and the put
    (another process evicted it): the twin still decodes from the
    payload read at planning time, and its own ``ddg-`` is encoded
    and written, with the bytes the copy would have had."""
    import repro.incr

    base_keys = _keys(_spec())
    base_bytes = _raw(store, base_keys.stage2)
    plan = repro.incr.plan_incremental

    def plan_then_evict(*args, **kwargs):
        out = plan(*args, **kwargs)
        store._unlink(store.path_of(out.base_keys.stage2))
        return out

    monkeypatch.setattr(repro.incr, "plan_incremental", plan_then_evict)
    twin = renumbered_spec(_spec(), offset=1000)
    puts = store.stats.puts
    inc = analyze(twin, store=store, baseline=fingerprint_program(_spec().program))
    assert inc.incremental.mode == "identical"
    assert not store.contains(base_keys.stage2)
    keys = _keys(twin)
    assert _raw(store, keys.stage2) == base_bytes
    assert _raw(store, keys.stage1) == _raw(store, base_keys.stage1)
    assert store.stats.puts - puts == 3  # cp-, ddg-, man-
    assert _docs(inc) == _docs(analyze(renumbered_spec(_spec(), offset=1000)))
