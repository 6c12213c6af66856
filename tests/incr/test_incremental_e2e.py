"""End-to-end incremental re-analysis: byte identity or bust.

The contract under test: ``analyze(baseline=...)`` may reuse whatever
it wants, but the rendered report and metrics documents must be
byte-identical to a cold full analysis of the same program -- plain,
under ``--crosscheck``, and under parallel folding.  (Only the fast
engine reads the store; the reference engine is serial and uncached.)
"""

import pytest

from repro.ddg import FrontierViolation
from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.incr import edited_spec, renumbered_spec
from repro.isa import fingerprint_program
from repro.obs import Tracer
from repro.pipeline import analyze, profile_control, profile_ddg
from repro.store import ArtifactStore, keys_for_spec
from repro.workloads import all_workloads


def _spec():
    return all_workloads()["kmeans"]()


def _docs(result):
    return (
        render_json(report_document(result)),
        render_json(metrics_document(result)),
    )


def _renumbered_spec():
    # a fresh, validated program (never an in-place mutation: programs
    # are immutable once compiled) with every uid shifted
    return renumbered_spec(_spec(), offset=1000)


@pytest.mark.parametrize(
    "engine,fold_jobs,crosscheck",
    [
        ("fast", 1, False),
        ("fast", 1, True),
        ("fast", 2, False),
    ],
)
def test_incremental_byte_identical_to_cold(
    tmp_path, engine, fold_jobs, crosscheck
):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), engine=engine, store=store, fold_jobs=fold_jobs)

    inc = analyze(
        edited_spec(_spec(), "assign_points"),
        engine=engine,
        store=store,
        fold_jobs=fold_jobs,
        crosscheck=crosscheck,
        baseline=baseline,
    )
    assert inc.incremental is not None
    assert inc.incremental.mode == "incremental"
    # the one-function edit re-instruments exactly the sliced frontier
    assert set(inc.incremental.frontier) == {
        "assign_points", "update_centers",
    }
    assert inc.incremental.regions_reused == 1  # main
    assert inc.incremental.summary["modified"] == 1
    if crosscheck:
        assert inc.crosscheck is not None
        assert not inc.crosscheck.violations, inc.crosscheck.render()

    cold = analyze(
        edited_spec(_spec(), "assign_points"),
        engine=engine,
        fold_jobs=fold_jobs,
        crosscheck=crosscheck,
    )
    assert _docs(inc) == _docs(cold)


def test_identical_mode_runs_nothing(tmp_path):
    """A uid-renumbered program is all-unchanged: both stages are
    served from the baseline without executing anything."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    renum = _renumbered_spec()
    assert fingerprint_program(renum.program) != baseline
    inc = analyze(renum, store=store, baseline=baseline)
    assert inc.incremental.mode == "identical"
    assert inc.timings.stage1_cached and inc.timings.stage2_cached
    assert inc.incremental.regions_reused == len(renum.program.functions)

    cold = analyze(_renumbered_spec())
    assert _docs(inc) == _docs(cold)


def test_warm_hit_short_circuits_incremental(tmp_path):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)
    edited = edited_spec(_spec(), "assign_points")
    analyze(edited, store=store)  # now ddg- of the edited program exists

    again = analyze(
        edited_spec(_spec(), "assign_points"), store=store, baseline=baseline
    )
    assert again.incremental.mode == "warm"
    assert again.incremental.reason == "stage2-warm-hit"
    assert again.timings.cache_hit


def test_unknown_baseline_falls_cold(tmp_path):
    store = ArtifactStore(str(tmp_path))
    inc = analyze(_spec(), store=store, baseline="ab" * 32)
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "baseline-manifest-miss"
    cold = analyze(_spec())
    assert _docs(inc) == _docs(cold)


def test_baseline_equals_program_is_cold_reasoned(tmp_path):
    store = ArtifactStore(str(tmp_path))
    digest = fingerprint_program(_spec().program)
    inc = analyze(_spec(), store=store, baseline=digest)
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "baseline-equals-program"


def test_baseline_without_store_raises():
    with pytest.raises(ValueError, match="artifact store"):
        analyze(_spec(), baseline="ab" * 32)


def test_tampered_region_falls_back_cold_and_stays_correct(tmp_path):
    """A structurally-valid but inconsistent region artifact must trip
    the stitcher and land on the cold path with identical output."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    keys = keys_for_spec(
        _spec(), fuel=50_000_000, max_pieces=6, clamp=None,
        track_anti_output=True, build_schedule_tree=True,
    )
    key = keys.region("main")  # the region an assign_points edit reuses
    payload = store.get(key)
    payload["statements"][0]["ord"] = 10**6
    store.put(key, payload)

    inc = analyze(
        edited_spec(_spec(), "assign_points"), store=store, baseline=baseline
    )
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason.startswith("fallback:")
    cold = analyze(edited_spec(_spec(), "assign_points"))
    assert _docs(inc) == _docs(cold)


def test_missing_region_artifact_joins_frontier(tmp_path):
    """A rgn- miss for a reusable function is an artifact-miss reason,
    not a failure: the function just gets re-instrumented too."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)
    keys = keys_for_spec(
        _spec(), fuel=50_000_000, max_pieces=6, clamp=None,
        track_anti_output=True, build_schedule_tree=True,
    )
    import os

    os.unlink(store.path_of(keys.region("main")))

    inc = analyze(
        edited_spec(_spec(), "assign_points"), store=store, baseline=baseline
    )
    info = inc.incremental
    # every function is on the frontier now -> nothing left to reuse
    assert info.mode == "cold"
    assert info.reason == "frontier-covers-program"
    cold = analyze(edited_spec(_spec(), "assign_points"))
    assert _docs(inc) == _docs(cold)


def test_incr_spans_cover_the_pipeline(tmp_path):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    tracer = Tracer()
    analyze(
        edited_spec(_spec(), "assign_points"),
        store=store,
        baseline=baseline,
        tracer=tracer,
    )
    tracer.close()
    names = {
        span.name
        for root in tracer.roots
        for _depth, span in root.walk()
    }
    assert {
        "incr.diff", "incr.slice", "incr.load", "incr.stitch", "incr.put",
    } <= names


def test_frontier_violation_when_slice_is_too_small():
    """Deliberately emit only the writer of shared arrays: the slim
    reader observes a real (emitted) ref and must refuse, not drop the
    crossing dependence on the floor."""
    spec = _spec()
    control = profile_control(spec)
    with pytest.raises(FrontierViolation):
        profile_ddg(spec, control, emit_funcs={"assign_points"})


def test_empty_emit_set_runs_violation_free():
    """All-slim execution (the incremental path for an all-unchanged
    diff that still must execute) observes no emitted refs anywhere."""
    spec = _spec()
    control = profile_control(spec)
    ddgp = profile_ddg(spec, control, emit_funcs=set())
    full = profile_ddg(_spec(), profile_control(_spec()))
    # the slim tier still counts every instruction and records the
    # schedule tree -- the byte-identity prerequisites
    assert ddgp.builder.instr_count == full.builder.instr_count
