"""Twins are warm hits on their baseline's stored artifacts.

A twin is a program whose diff against its baseline is all-unchanged:
its uids are shifted or permuted, or its functions are listed in
another order.  Its canonical program digest equals the baseline's, so
it shares the baseline's ``cp-``/``ddg-`` keys: analyzed with a store
and no baseline, nothing executes and nothing is re-encoded or
re-written; the uid-free stage-2 payload is decoded against the twin,
dependence vectors included.  Everything the twin renders must equal a
store-less cold analysis of it, byte for byte.
"""

import json
import os

import pytest

from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.incr import renumbered_spec
from repro.isa import fingerprint_program
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

from ..twins import TWINS

FUEL = 50_000_000


def _spec():
    return all_workloads()["kmeans"]()


def _docs(result):
    return (
        render_json(report_document(result)),
        render_json(metrics_document(result)),
    )


def _keys(spec):
    return keys_for_spec(spec, fuel=FUEL, clamp=None)


def _canonical(spec, store, keys):
    """The stored stage-1 and stage-2 payloads of ``spec``, decoded and
    re-encoded against its program, whole."""
    cp = encode_control_profile(
        decode_control_profile(store.get(keys.stage1))
    )
    folded, ddgp, vectors = decode_stage2(store.get(keys.stage2), spec.program)
    ddg = encode_stage2(spec.program, folded, ddgp, vectors)
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


def _objects(store):
    """name -> bytes of every cp-/ddg- object in the store."""
    out = {}
    for path, _, _ in store.entries():
        name = os.path.basename(path)
        if name.startswith(("cp-", "ddg-")):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("twin_name", list(TWINS))
def test_twin_is_served_from_the_baseline(store, tmp_path, twin_name):
    base = _spec()
    twin = TWINS[twin_name](_spec())
    assert fingerprint_program(twin.program) != fingerprint_program(
        base.program
    )
    keys, base_keys = _keys(twin), _keys(base)
    assert (keys.stage1, keys.stage2) == (base_keys.stage1, base_keys.stage2)

    before = _objects(store)
    puts = store.stats.puts
    warm = analyze(twin, store=store)
    assert warm.timings.cache_hit
    assert store.stats.puts - puts == 1  # its own man- only
    assert _objects(store) == before

    cold = analyze(TWINS[twin_name](_spec()))
    assert _docs(warm) == _docs(cold)

    # the decoded vectors are exactly what the feedback stage computes
    want = analyze_deps(warm.folded)
    assert [_vector_fields(dv) for dv in warm.forest.deps] == [
        _vector_fields(dv) for dv in want
    ]
    assert all(
        dv.dep is warm.folded.deps[dv.dep.key] for dv in warm.forest.deps
    )

    # the shared objects decode to what a cold stored run of the twin
    # writes
    cold_store = ArtifactStore(str(tmp_path / "cold"))
    analyze(TWINS[twin_name](_spec()), store=cold_store)
    assert _canonical(twin, store, keys) == _canonical(twin, cold_store, keys)


def test_twin_warm_hit_profiles_and_re_encodes_nothing(store, monkeypatch):
    import repro.pipeline
    import repro.schedule.deps
    import repro.schedule.nest
    import repro.store
    import repro.store.artifacts
    import repro.store.stage2

    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on a twin's warm hit")

        return called

    for module, name in (
        (repro.pipeline, "profile_control"),
        (repro.pipeline, "profile_ddg"),
        (repro.schedule.nest, "analyze_deps"),
        (repro.schedule.deps, "analyze_deps"),
        (repro.store.stage2, "encode_regions"),
        (repro.store, "encode_control_profile"),
        (repro.store.artifacts, "encode_control_profile"),
        (repro.store, "encode_stage2"),
        (repro.store.stage2, "encode_stage2"),
    ):
        monkeypatch.setattr(module, name, spy(name))
    warm = analyze(renumbered_spec(_spec(), offset=1000), store=store)
    assert warm.timings.cache_hit
    assert calls == []


def test_evicted_baseline_runs_cold_and_puts(store):
    """The baseline's ``ddg-`` is gone (another process evicted it):
    the twin misses stage 2, runs it cold, and writes the shared
    object again, with what the baseline had written."""
    twin = renumbered_spec(_spec(), offset=1000)
    keys = _keys(twin)
    want = _canonical(twin, store, keys)
    store._unlink(store.path_of(keys.stage2))

    puts = store.stats.puts
    inc = analyze(twin, store=store)
    assert inc.timings.stage1_cached
    assert not inc.timings.stage2_cached
    assert _canonical(twin, store, keys) == want
    assert store.stats.puts - puts == 2  # ddg-, man-
    assert _docs(inc) == _docs(analyze(renumbered_spec(_spec(), offset=1000)))
