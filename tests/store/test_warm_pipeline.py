"""Warm-path correctness: a cache must be invisible in the results.

Cold-vs-warm byte identity across the full workload registry, staged
invalidation (program mutation / option change /
format bump -> orderly miss; corrupt artifact -> miss, never a crash),
stage-1 reuse under stage-2 option changes, and a green crosscheck on
a fully warm cache.
"""

import dataclasses
import gzip
import os

import pytest

import repro.store.keys as keys_mod
import repro.store.store as store_mod
from repro.feedback import compute_region_metrics
from repro.feedback.report import render_report
from repro.pipeline import analyze
from repro.runner import render_suite_table, run_suite
from repro.store import ArtifactStore, keys_for_spec
from repro.workloads import all_workloads

WORKLOADS = sorted(all_workloads())
# "mm" aliases pb_gemm (same program, same content-addressed keys), so
# whichever of the pair runs second would warm-hit the other's
# artifacts -- drop the alias to keep every first run genuinely cold;
# test_alias_workloads_share_artifacts pins the sharing itself
if "mm" in WORKLOADS:
    WORKLOADS.remove("mm")


def _metrics_row(result):
    spec = result.spec
    return compute_region_metrics(
        result.folded,
        result.forest,
        result.control.callgraph,
        region_funcs=spec.region_funcs,
        label=spec.region_label or spec.name,
        ld_src=spec.ld_src,
        fusion_heuristic=spec.fusion_heuristic,
    ).row()


# only the fast engine is cached; the single-valued axis keeps the id
@pytest.mark.parametrize("engine", ("fast",))
def test_cold_vs_warm_identical_full_registry(tmp_path, engine):
    """Every workload, cold then warm: byte-identical report, metrics
    row, schedule tree, and run statistics."""
    store = ArtifactStore(str(tmp_path / engine))
    for name in WORKLOADS:
        cold = analyze(all_workloads()[name](), engine=engine, store=store)
        assert not cold.timings.cache_hit, name
        warm = analyze(all_workloads()[name](), engine=engine, store=store)
        assert warm.timings.cache_hit, name
        assert warm.timings.stage1_cached and warm.timings.stage2_cached

        assert render_report(cold.forest, cold.plans) == render_report(
            warm.forest, warm.plans
        ), name
        assert _metrics_row(cold) == _metrics_row(warm), name
        assert (
            cold.schedule_tree.render_text()
            == warm.schedule_tree.render_text()
        ), name
        assert (
            cold.ddg_profile.builder.instr_count
            == warm.ddg_profile.builder.instr_count
        )
        assert (
            cold.control.stats.dyn_instrs == warm.control.stats.dyn_instrs
        )
        assert dict(cold.ddg_profile.stats.per_opcode) == dict(
            warm.ddg_profile.stats.per_opcode
        )
        assert len(cold.plans) == len(warm.plans)


def test_alias_workloads_share_artifacts(tmp_path):
    """"mm" is pb_gemm under its colloquial name: content addressing
    makes the alias warm-hit the original's artifacts."""
    store = ArtifactStore(str(tmp_path))
    cold = analyze(all_workloads()["pb_gemm"](), store=store)
    assert not cold.timings.cache_hit
    aliased = analyze(all_workloads()["mm"](), store=store)
    assert aliased.timings.cache_hit
    assert aliased.timings.stage1_cached and aliased.timings.stage2_cached


def test_program_mutation_invalidates(tmp_path):
    store = ArtifactStore(str(tmp_path))
    spec = all_workloads()["nw"]()
    analyze(spec, store=store)

    mutated = all_workloads()["nw"]()
    for fn in mutated.program.functions.values():
        for bb in fn.blocks.values():
            if bb.instrs:
                bb.instrs[0] = dataclasses.replace(
                    bb.instrs[0], src_line=4242
                )
                break
        break
    keys_orig = keys_for_spec(
        spec, fuel=50_000_000, clamp=None,
    )
    keys_mut = keys_for_spec(
        mutated, fuel=50_000_000, clamp=None,
    )
    assert keys_orig.program_digest != keys_mut.program_digest
    assert keys_orig.stage1 != keys_mut.stage1
    assert keys_orig.stage2 != keys_mut.stage2

    result = analyze(mutated, store=store)
    assert not result.timings.stage1_cached
    assert not result.timings.stage2_cached


def test_option_change_reuses_stage1(tmp_path):
    """A stage-2-only option change (the clamp) misses the folded DDG
    but still reuses the cached ControlProfile."""
    store = ArtifactStore(str(tmp_path))
    spec = all_workloads()["nw"]()
    analyze(spec, store=store)

    again = analyze(all_workloads()["nw"](), store=store, clamp=40)
    assert again.timings.stage1_cached
    assert not again.timings.stage2_cached
    assert not again.timings.cache_hit

    # and the changed-option run is itself cached now
    third = analyze(all_workloads()["nw"](), store=store, clamp=40)
    assert third.timings.cache_hit


def test_fuel_is_a_stage1_input(tmp_path):
    spec = all_workloads()["nw"]()
    base = dict(
        clamp=None,
    )
    k1 = keys_for_spec(spec, fuel=50_000_000, **base)
    k2 = keys_for_spec(spec, fuel=1_000_000, **base)
    assert k1.stage1 != k2.stage1
    assert k1.stage2 != k2.stage2


def test_format_bump_invalidates(tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path))
    spec = all_workloads()["nw"]()
    analyze(spec, store=store)

    monkeypatch.setattr(
        store_mod, "STORE_FORMAT_VERSION",
        store_mod.STORE_FORMAT_VERSION + 1,
    )
    monkeypatch.setattr(
        keys_mod, "STORE_FORMAT_VERSION",
        keys_mod.STORE_FORMAT_VERSION + 1,
    )
    result = analyze(all_workloads()["nw"](), store=store)
    assert not result.timings.stage1_cached
    assert not result.timings.stage2_cached


def _artifact_paths(store, prefix):
    return [
        os.path.join(store.objects_dir, n)
        for n in os.listdir(store.objects_dir)
        if n.startswith(prefix)
    ]


@pytest.mark.parametrize("prefix", ("cp-", "ddg-"))
def test_truncated_artifact_never_crashes(tmp_path, prefix):
    store = ArtifactStore(str(tmp_path))
    cold = analyze(all_workloads()["nw"](), store=store)
    for path in _artifact_paths(store, prefix):
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 3])

    warm = analyze(all_workloads()["nw"](), store=store)
    assert not warm.timings.cache_hit
    assert store.stats.errors >= 1
    assert render_report(cold.forest, cold.plans) == render_report(
        warm.forest, warm.plans
    )
    # the corrupt artifact was dropped and replaced; next run is warm
    healed = analyze(all_workloads()["nw"](), store=store)
    assert healed.timings.cache_hit


@pytest.mark.parametrize("prefix", ("cp-", "ddg-"))
def test_full_disk_on_a_put_never_fails_the_analysis(
    tmp_path, full_disk, prefix
):
    """ENOSPC while an artifact is written: the finished analysis
    renders what a store-less run renders, the failed artifact and its
    temp file are gone, and the error is counted."""
    from repro.feedback.jsonout import (
        metrics_document,
        render_json,
        report_document,
    )

    full_disk(prefix)
    store = ArtifactStore(str(tmp_path))
    stored = analyze(all_workloads()["kmeans"](), store=store)
    cold = analyze(all_workloads()["kmeans"]())
    for doc_of in (report_document, metrics_document):
        assert render_json(doc_of(stored)) == render_json(doc_of(cold))
    assert store.stats.errors == 1
    assert _artifact_paths(store, prefix) == []
    assert _artifact_paths(store, ".tmp-") == []


def test_garbage_artifact_never_crashes(tmp_path):
    store = ArtifactStore(str(tmp_path))
    analyze(all_workloads()["nw"](), store=store)
    for path in _artifact_paths(store, "ddg-"):
        with gzip.open(path, "wb") as fh:
            fh.write(b'{"format": 1, "data": {"wat": []}}')
    warm = analyze(all_workloads()["nw"](), store=store)
    assert not warm.timings.stage2_cached  # decode failed -> recomputed
    assert warm.timings.stage1_cached


def test_crosscheck_green_on_warm_cache(tmp_path):
    """The soundness sanitizers must pass against decoded artifacts
    (they recount dependence streams on the reference engine)."""
    store = ArtifactStore(str(tmp_path))
    for name in ("backprop", "nw", "b+tree"):
        analyze(all_workloads()[name](), store=store)
    for name in ("backprop", "nw", "b+tree"):
        warm = analyze(all_workloads()[name](), store=store, crosscheck=True)
        assert warm.timings.cache_hit, name
        assert warm.crosscheck is not None
        assert not warm.crosscheck.violations, (
            name, warm.crosscheck.render(),
        )


def test_suite_shares_store_and_reports_stats(tmp_path):
    names = ["backprop", "nw", "lud"]
    cache_dir = str(tmp_path / "suite-cache")
    cold = run_suite(
        names, jobs=2, with_report=True, cache_dir=cache_dir
    )
    warm = run_suite(
        names, jobs=2, with_report=True, cache_dir=cache_dir
    )
    assert all(r.ok for r in cold + warm)
    assert not any(r.cache_hit for r in cold)
    assert all(r.cache_hit for r in warm)
    assert [c.report for c in cold] == [w.report for w in warm]
    for w in warm:
        assert w.cache_stats is not None
        assert w.cache_stats["hits"] >= 2
        assert w.cache_stats["misses"] == 0
        # per-stage split is populated and consistent
        assert w.t_instr1 >= 0 and w.t_instr2_fold >= 0
        assert w.t_feedback >= 0
        assert (
            w.t_instr1 + w.t_instr2_fold + w.t_feedback <= w.wall_seconds
        )

    table = render_suite_table(warm)
    assert "cache:" in table
    assert "warm" in table
    cold_table = render_suite_table(cold)
    assert "cold" in cold_table


def test_suite_without_cache_has_no_cache_column(tmp_path):
    results = run_suite(["nw"], jobs=1)
    assert results[0].cache_stats is None
    table = render_suite_table(results)
    assert "cache" not in table


def test_suite_cache_max_bytes_evicts(tmp_path):
    cache_dir = str(tmp_path / "tiny")
    results = run_suite(
        ["backprop", "nw", "lud"],
        jobs=1,
        cache_dir=cache_dir,
        cache_max_bytes=1,
    )
    assert all(r.ok for r in results)
    total_evictions = sum(
        r.cache_stats["evictions"] for r in results if r.cache_stats
    )
    assert total_evictions >= 1
    store = ArtifactStore(cache_dir)
    assert store.total_bytes() <= 1
