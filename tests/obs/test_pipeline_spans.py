"""The pipeline's span tree and the StageTimings derived from it."""

import pytest

from repro.obs import NULL_TRACER, TraceObserver, Tracer
from repro.pipeline import StageTimings, analyze
from repro.store import ArtifactStore
from repro.workloads import all_workloads

EPS = 1e-6


@pytest.fixture(scope="module")
def traced_nn():
    tracer = Tracer()
    result = analyze(all_workloads()["nn"](), tracer=tracer)
    return tracer, result


class TestSpanTree:
    def test_root_has_stage_children_in_order(self, traced_nn):
        tracer, _ = traced_nn
        (root,) = tracer.roots
        assert root.name == "analyze"
        assert root.args["workload"] == "nn"
        assert [c.name for c in root.children] == [
            "instr1", "instr2_fold", "feedback",
        ]

    def test_result_carries_the_root_span(self, traced_nn):
        tracer, result = traced_nn
        assert result.trace is tracer.roots[0]

    def test_sub_phases_present(self, traced_nn):
        _, result = traced_nn
        root = result.trace
        for name in (
            "stage1.execute", "stage1.forests", "stage1.rcs",
            "stage2.execute", "fold.finalize", "fold.statements",
            "fold.deps", "feedback.forest", "feedback.plan",
        ):
            assert root.find(name) is not None, name

    def test_children_sum_within_parent(self, traced_nn):
        """The drift invariant: no child outlives its parent, and
        children's total never exceeds the parent's duration."""
        _, result = traced_nn
        for _, span in result.trace.walk():
            assert span.t1 >= span.t0
            for child in span.children:
                assert child.t0 >= span.t0 - EPS
                assert child.t1 <= span.t1 + EPS
            assert span.child_seconds() <= span.duration + EPS

    def test_default_analyze_is_traced_too(self):
        result = analyze(all_workloads()["nn"]())
        assert result.trace is not None
        assert result.trace.name == "analyze"
        assert result.timings.total > 0.0


class TestStageTimingsFromSpans:
    def test_parts_sum_exactly_to_root(self, traced_nn):
        _, result = traced_nn
        t = result.timings
        assert t.total == pytest.approx(result.trace.duration, abs=EPS)
        # glue-inclusive: each stage covers up to its span's end
        assert t.instr1 > 0 and t.instr2_fold > 0 and t.feedback > 0

    def test_missing_stage_spans_raise(self):
        tr = Tracer()
        with tr.span("analyze") as root:
            with tr.span("unrelated"):
                pass
        with pytest.raises(ValueError, match="instr1"):
            StageTimings.from_span_tree(root)

    def test_null_tracer_yields_zero_timings_and_no_trace(self):
        result = analyze(all_workloads()["nn"](), tracer=NULL_TRACER)
        assert result.trace is None
        assert result.timings.total == 0.0
        assert result.timings.cache_hit is False


class TestDeepTrace:
    def test_trace_observer_attaches_execution_counters(self):
        tracer = Tracer()
        result = analyze(
            all_workloads()["nn"](),
            tracer=tracer,
            extra_observers=[TraceObserver(tracer)],
        )
        s1 = result.trace.find("stage1.execute")
        s2 = result.trace.find("stage2.execute")
        assert s1.counters["blocks"] > 0
        assert s1.counters["dyn_instrs"] == result.control.stats.dyn_instrs
        assert s2.counters["dyn_instrs"] > 0


class TestWarmCache:
    def test_cache_flags_and_cache_spans(self, tmp_path):
        spec_factory = all_workloads()["nn"]
        store = ArtifactStore(str(tmp_path))
        cold = analyze(spec_factory(), store=store)
        assert not cold.timings.cache_hit
        assert cold.trace.find("stage1.put") is not None
        warm_tracer = Tracer()
        warm = analyze(spec_factory(), store=store, tracer=warm_tracer)
        assert warm.timings.stage1_cached
        assert warm.timings.stage2_cached
        assert warm.timings.cache_hit
        root = warm.trace
        # the key derivation is timed inside the root, before stage 1
        assert [c.name for c in root.children][:2] == ["store.keys", "instr1"]
        assert root.find("stage1.load") is not None
        # a warm hit never executes, so no execute spans
        assert root.find("stage1.execute") is None
        assert root.find("stage2.execute") is None
        # and the derived timings still sum to the root
        assert warm.timings.total == pytest.approx(
            root.duration, abs=EPS
        )

    def test_identical_results_cold_vs_warm(self, tmp_path):
        spec_factory = all_workloads()["nn"]
        store = ArtifactStore(str(tmp_path))
        cold = analyze(spec_factory(), store=store)
        warm = analyze(spec_factory(), store=store)
        assert cold.folded.stmt_count() == warm.folded.stmt_count()
        assert len(cold.folded.deps) == len(warm.folded.deps)
