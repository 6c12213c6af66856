"""Service observability: the trace artifact, span-derived metrics,
and progress heartbeats -- over a live loopback socket."""

import dataclasses
import json
import os

import pytest

from repro.obs import chrome_trace_document, validate_chrome_trace
from repro.service import Job, ServiceError, parse_samples, run_analysis
from repro.service.jobs import JobOptions
from repro.workloads import all_workloads

from .conftest import counting_loop_docs


def _rendered(doc):
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


class TestTraceEndpoint:
    def test_trace_artifact_is_valid_chrome_trace(self, make_service):
        live = make_service()
        sub = live.client.submit(workload="nn")
        live.client.wait(sub["job"])
        doc = json.loads(live.client.trace(sub["job"]).decode("utf-8"))
        assert validate_chrome_trace(doc) > 0
        assert doc["otherData"]["workload"] == "nn"
        names = {
            e["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"analyze", "instr1", "instr2_fold", "feedback"} <= names

    @pytest.mark.parametrize(
        "execution,workload,name",
        [
            ("thread", "nn", "nn"),
            # the trace names the program, as the analysis did
            ("thread", "pb_atax", "atax"),
            ("process", "nn", "nn"),
        ],
    )
    def test_trace_is_rendered_from_the_job_spans(
        self, make_service, execution, workload, name
    ):
        live = make_service(execution=execution)
        sub = live.client.submit(workload=workload)
        live.client.wait(sub["job"])
        raw = live.client.trace(sub["job"])
        job = live.service.registry.get(sub["job"])
        if execution == "thread":
            assert job.exec_pid == os.getpid()
        else:
            workers = live.client.health()["process_workers"]
            assert job.exec_pid == workers[0]["pid"] != os.getpid()
        expected = chrome_trace_document(
            job.span_docs, workload=name, pid=job.exec_pid
        )
        assert raw == _rendered(expected)
        assert validate_chrome_trace(json.loads(raw)) > 0

    def test_sweep_parent_trace_is_rendered_from_its_spans(
        self, make_service, tmp_path
    ):
        live = make_service(workers=2, cache_dir=str(tmp_path / "c"))
        sub = live.client.submit(workload="nw", sweep=[{"n": 8}, {"n": 10}])
        live.client.wait(sub["job"], timeout=120)
        raw = live.client.trace(sub["job"])
        job = live.service.registry.get(sub["job"])
        assert job.exec_pid == os.getpid()
        expected = chrome_trace_document(
            job.span_docs, workload="nw", pid=job.exec_pid
        )
        assert raw == _rendered(expected)
        doc = json.loads(raw)
        assert validate_chrome_trace(doc) > 0
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "sweep.merge" in names

    def test_no_trace_bytes_in_outcome_or_job(self):
        spec = all_workloads()["nn"]()
        outcome = run_analysis(spec, JobOptions())
        assert outcome["state"] == "done"
        assert "trace_json" not in outcome
        assert outcome["spans"] and outcome["pid"] == os.getpid()
        assert "trace_json" not in {f.name for f in dataclasses.fields(Job)}

    def test_trace_before_done_conflicts(self, make_service):
        live = make_service()
        program, state = counting_loop_docs(400_000, name="busy_trace")
        sub = live.client.submit(program=program, state=state)
        with pytest.raises(ServiceError) as err:
            live.client.trace(sub["job"])
        assert err.value.status == 409
        live.client.cancel(sub["job"])


class TestSpanDerivedTimings:
    def test_status_doc_total_and_timings_from_spans(self, make_service):
        live = make_service()
        sub = live.client.submit(workload="nn")
        status = live.client.wait(sub["job"])
        total = status["total_seconds"]
        assert total is not None and total > 0
        # the stage split is derived from span boundaries, so the
        # parts sum (almost) exactly to the span-derived total; the
        # crosscheck-free case has a single root span
        parts = sum(status["timings"].values())
        assert parts == pytest.approx(total, rel=1e-6, abs=1e-6)
        # and the total is contained in the coarser wall-clock window
        assert total <= status["wall_seconds"] + 0.5

    def test_job_histogram_observes_span_total(self, make_service):
        live = make_service()
        sub = live.client.submit(workload="nn")
        status = live.client.wait(sub["job"])
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_job_seconds_sum"] == pytest.approx(
            status["total_seconds"], rel=1e-6
        )
        assert samples[
            "repro_service_stage_instr1_seconds_sum"
        ] == pytest.approx(status["timings"]["instr1"], rel=1e-6)


class TestProgressHeartbeats:
    def test_terminal_doc_records_final_progress(self, make_service):
        live = make_service()
        sub = live.client.submit(workload="nn")
        status = live.client.wait(sub["job"])
        progress = status["progress"]
        assert progress["phase"] == "done"
        assert progress["dyn_instrs"] > 0
        assert progress["updated_at"] >= status["started_at"]

    def test_running_job_heartbeats_phase(self, make_service):
        live = make_service()
        program, state = counting_loop_docs(400_000, name="hb_loop")
        sub = live.client.submit(program=program, state=state)
        running_phase = None
        try:
            # poll only until the first heartbeat of a running job: the
            # loop itself would take far longer to finish than to show
            for _ in range(2_000):
                doc = live.client.job(sub["job"])
                phase = doc.get("progress", {}).get("phase")
                if doc["state"] == "running" and phase:
                    running_phase = phase
                    break
                if doc["state"] not in ("queued", "running"):
                    break
        finally:
            live.client.cancel(sub["job"])
        # the on_phase callback surfaced a pipeline phase while the job
        # was in flight
        assert running_phase in {"analyze", "instr1", "instr2_fold",
                                 "feedback", "done"}
