"""End-to-end ``analyze(baseline=...)``: byte identity or bust.

The contract under test: the rendered report and metrics documents of
``analyze(baseline=...)`` must be byte-identical to a cold full
analysis of the same program -- plain and under ``--crosscheck``.  A
twin (every function unchanged) shares its baseline's store keys and
is a warm hit; a stored payload that does not decode is a warm miss
and the twin runs cold.  Any other program plans cold without reading
the baseline's payload.  (Only the fast engine reads the store; the
reference engine is serial and uncached.)
"""

import os

import pytest

from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.incr import edited_spec, renumbered_spec
from repro.isa import fingerprint_program
from repro.obs import Tracer
from repro.pipeline import analyze
from repro.store import ArtifactStore, keys_for_spec
from repro.store.stage2 import DEP_FIELDS, STMT_FIELDS, VECTOR_FIELDS
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


@pytest.mark.parametrize("crosscheck", [False, True])
def test_incremental_byte_identical_to_cold(tmp_path, monkeypatch, crosscheck):
    """A one-function body edit plans cold from the diff alone: it
    never reads the baseline's stage-2 payload."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    requested = []
    get = store.get

    def spy(key):
        requested.append(key)
        return get(key)

    monkeypatch.setattr(store, "get", spy)
    inc = analyze(
        edited_spec(_spec(), "assign_points"),
        store=store,
        crosscheck=crosscheck,
        baseline=baseline,
    )
    assert inc.incremental is not None
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "program-changed"
    assert inc.incremental.regions_reused == 0
    assert inc.incremental.summary["modified"] == 1
    assert inc.incremental.funcs_total == 3
    assert requested, "the planner reads the baseline's manifest"
    assert _stage2_key() not in requested
    if crosscheck:
        assert inc.crosscheck is not None
        assert not inc.crosscheck.violations, inc.crosscheck.render()

    cold = analyze(edited_spec(_spec(), "assign_points"), crosscheck=crosscheck)
    assert _docs(inc) == _docs(cold)


def test_twin_against_its_baseline_is_a_warm_hit(tmp_path):
    """A uid-renumbered program is all-unchanged and shares the
    baseline's keys: both stages are warm hits, nothing executes."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    renum = _renumbered_spec()
    assert fingerprint_program(renum.program) != baseline
    inc = analyze(renum, store=store, baseline=baseline)
    assert inc.incremental.mode == "warm"
    assert inc.incremental.reason == "stage2-warm-hit"
    assert inc.incremental.summary["unchanged"] == 3
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


def _stage2_key():
    return keys_for_spec(
        _spec(), fuel=50_000_000, clamp=None,
    ).stage2


def test_tampered_region_falls_back_cold_and_stays_correct(tmp_path):
    """A structurally-valid but inconsistent region inside the shared
    ddg- payload must trip the decoder: the twin's warm load is a
    miss, and the cold run renders identical output."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    key = _stage2_key()
    payload = store.get(key)
    payload["regions"]["main"]["statements"][0][STMT_FIELDS.index("ord")] = (
        10**6
    )
    store.put(key, payload)

    errors = store.stats.errors
    inc = analyze(_renumbered_spec(), store=store, baseline=baseline)
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "stage2-miss"
    assert inc.incremental.regions_reused == 0
    assert not inc.timings.stage2_cached
    assert store.stats.errors == errors + 1
    cold = analyze(_renumbered_spec())
    assert _docs(inc) == _docs(cold)


def _malform(payload, how):
    """Break one positional row of a stored payload's ``main`` region
    or dependence vectors: an extra field, or a table index past the
    end of (or before) its table."""
    region = payload["regions"]["main"]
    if how == "stmt-row-length":
        region["statements"][0].append(0)
    elif how == "dep-row-length":
        region["deps"][0].pop()
    elif how == "set-index":
        region["statements"][0][STMT_FIELDS.index("domain")] = 10**6
    elif how == "ctx-index":
        region["deps"][0][DEP_FIELDS.index("dst_ctx")] = len(region["ctxs"])
    elif how in ("expr-index", "expr-negative"):
        labels = STMT_FIELDS.index("label_pieces")
        row = next(r for r in region["statements"] if r[labels])
        row[labels][0][1][0] = (
            len(region["exprs"]) if how == "expr-index" else -1
        )
    else:
        rows = payload["dep_vectors"]["rows"]
        row = next(r for r in rows if r[VECTOR_FIELDS.index("bounds")])
        row[VECTOR_FIELDS.index("bounds")][0][0] = len(
            payload["dep_vectors"]["bounds"]
        )


MALFORMED = [
    "stmt-row-length", "dep-row-length", "set-index", "ctx-index",
    "expr-index", "expr-negative", "bound-index",
]


@pytest.mark.parametrize("how", MALFORMED)
def test_malformed_region_row_falls_back_cold(tmp_path, how):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)
    key = _stage2_key()
    payload = store.get(key)
    _malform(payload, how)
    store.put(key, payload)

    errors = store.stats.errors
    inc = analyze(_renumbered_spec(), store=store, baseline=baseline)
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "stage2-miss"
    assert inc.timings.stage1_cached
    assert not inc.timings.stage2_cached
    assert store.stats.errors == errors + 1
    cold = analyze(_renumbered_spec())
    assert _docs(inc) == _docs(cold)


@pytest.mark.parametrize("how", MALFORMED)
def test_malformed_region_row_is_a_warm_miss(tmp_path, how):
    store = ArtifactStore(str(tmp_path))
    cold = analyze(_spec(), store=store)
    key = _stage2_key()
    payload = store.get(key)
    _malform(payload, how)
    store.put(key, payload)
    errors = store.stats.errors

    warm = analyze(_spec(), store=store)
    assert warm.timings.stage1_cached
    assert not warm.timings.stage2_cached
    assert store.stats.errors == errors + 1
    assert _docs(warm) == _docs(cold)


@pytest.mark.parametrize("edit", ["renumber"])
def test_missing_baseline_stage2_goes_cold_identically(tmp_path, edit):
    """Without the shared ddg- payload a twin has nothing to reuse:
    the run is cold, says why, and renders the same bytes as a cold
    analysis."""
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)
    os.unlink(store.path_of(_stage2_key()))
    make = {"renumber": _renumbered_spec}[edit]

    inc = analyze(make(), store=store, baseline=baseline)
    info = inc.incremental
    assert info.mode == "cold"
    assert info.reason == "stage2-miss"
    assert info.regions_reused == 0
    assert _docs(inc) == _docs(analyze(make()))


def test_corrupt_baseline_stage2_goes_cold(tmp_path):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)
    key = _stage2_key()
    payload = store.get(key)
    del payload["regions"]["main"]
    store.put(key, payload)

    inc = analyze(_renumbered_spec(), store=store, baseline=baseline)
    assert inc.incremental.mode == "cold"
    assert inc.incremental.reason == "stage2-miss"
    assert not inc.timings.stage2_cached
    assert _docs(inc) == _docs(analyze(_renumbered_spec()))


def _span_names(store, spec, baseline):
    tracer = Tracer()
    analyze(spec, store=store, baseline=baseline, tracer=tracer)
    tracer.close()
    return {
        span.name
        for root in tracer.roots
        for _depth, span in root.walk()
    }


def test_incr_spans_cover_the_pipeline(tmp_path):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    names = _span_names(store, _renumbered_spec(), baseline)
    assert {"incr.diff", "stage2.load", "incr.put"} <= names
    assert not {"stage2.execute", "stage2.put"} & names


def test_body_edit_spans_stop_at_the_diff(tmp_path):
    store = ArtifactStore(str(tmp_path))
    baseline = fingerprint_program(_spec().program)
    analyze(_spec(), store=store)

    names = _span_names(
        store, edited_spec(_spec(), "assign_points"), baseline
    )
    assert {"incr.diff", "stage2.execute", "stage2.put", "incr.put"} <= names
