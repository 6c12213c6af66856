"""End-to-end distributed-trace stitching over live daemons.

The tentpole contract: one ``trace_id`` follows a request from the
front door through queueing, execution (worker thread *or* worker
process), and sweep fan-out -- and ``GET
/v1/traces/{trace_id}`` serves the whole thing back as one valid
multi-lane Chrome trace.  These tests drive real sockets and, for the
process-mode cases, real forked workers.
"""

import os
import time

from repro.obs import validate_chrome_trace
from repro.obs.context import new_trace_context

from .conftest import counting_loop_docs

SWEEP = [{"n": 8}, {"n": 10}, {"n": 12}]

#: canonical phase order a job progresses through (prefixes allowed)
PHASE_ORDER = ["analyze", "instr1", "instr2_fold", "feedback", "done"]


def _submit_loop(client, iters, **kwargs):
    program, state = counting_loop_docs(iters, name=f"stitch_{iters}")
    return client.submit(program=program, state=state, **kwargs)


def _span_names(doc):
    return {
        e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
    }


def _lane_labels(doc):
    return {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }


class TestDaemonStitching:
    def test_submission_mints_trace_and_serves_it_stitched(
        self, make_service
    ):
        live = make_service()
        sub = live.client.submit(workload="nn")
        trace_id = sub["trace_id"]
        assert len(trace_id) == 32
        int(trace_id, 16)
        status = live.client.wait(sub["job"])
        assert status["trace_id"] == trace_id
        doc = live.client.stitched_trace(trace_id)
        assert validate_chrome_trace(doc, multi_process=True) > 0
        assert doc["otherData"]["trace_id"] == trace_id
        assert {"analyze", "instr1", "instr2_fold"} <= _span_names(doc)

    def test_inbound_traceparent_is_adopted(self, make_service):
        live = make_service()
        ctx = new_trace_context()
        sub = _submit_loop(
            live.client, 40_000, traceparent=ctx.to_traceparent()
        )
        assert sub["trace_id"] == ctx.trace_id
        live.client.wait(sub["job"])
        doc = live.client.stitched_trace(ctx.trace_id)
        roots = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "analyze"
        ]
        assert roots
        # the executed pipeline's root span parents under the caller's
        # span: that linkage is what stitches cross-process forests
        assert all(
            e["args"].get("parent_id") == ctx.span_id for e in roots
        )

    def test_malformed_traceparent_mints_fresh(self, make_service):
        live = make_service()
        sub = _submit_loop(
            live.client, 41_000, traceparent="not-a-traceparent"
        )
        assert len(sub["trace_id"]) == 32

    def test_dedup_keeps_the_existing_jobs_trace(self, make_service):
        live = make_service()
        first = _submit_loop(live.client, 42_000)
        second = _submit_loop(
            live.client,
            42_000,
            traceparent=new_trace_context().to_traceparent(),
        )
        assert second["deduplicated"] is True
        assert second["trace_id"] == first["trace_id"]

    def test_unknown_trace_is_404(self, make_service):
        live = make_service()
        status, _, _ = live.client.request_raw(
            "GET", "/v1/traces/" + "d" * 32
        )
        assert status == 404


class TestProcessModeStitching:
    def test_worker_process_gets_its_own_lane(self, make_service):
        live = make_service(execution="process")
        sub = live.client.submit(workload="nn")
        live.client.wait(sub["job"], timeout=60)
        doc = live.client.stitched_trace(sub["trace_id"])
        assert validate_chrome_trace(doc, multi_process=True) > 0
        sources = doc["otherData"]["sources"]
        # the executing pid is the forked pool worker's, not the
        # daemon's (which in these tests is the pytest process)
        worker_pids = {s["pid"] for s in sources}
        assert worker_pids
        assert os.getpid() not in worker_pids
        assert any(
            f"(pid {pid})" in label
            for pid in worker_pids
            for label in _lane_labels(doc)
        )
        assert "analyze" in _span_names(doc)


class TestSweepStitching:
    def test_sweep_children_join_the_parent_trace(
        self, make_service, tmp_path
    ):
        live = make_service(workers=2, cache_dir=str(tmp_path / "c"))
        sub = live.client.submit(workload="nw", sweep=SWEEP)
        trace_id = sub["trace_id"]
        status = live.client.wait(sub["job"], timeout=120)
        assert status["trace_id"] == trace_id
        # every fanned-out child job carries the parent's trace id
        children = status["sweep"]["children"]
        assert len(children) == 3
        for child_id in children:
            child = live.client.wait(child_id, timeout=120)
            assert child["trace_id"] == trace_id
        doc = live.client.stitched_trace(trace_id)
        assert validate_chrome_trace(doc, multi_process=True) > 0
        names = _span_names(doc)
        assert "sweep.merge" in names  # the parent's merge phase
        assert "analyze" in names  # the children's pipelines


class TestHeartbeatOrdering:
    def test_procpool_phases_arrive_in_order_with_trace_id(
        self, make_service
    ):
        """Heartbeats cross the procpool evt pipe FIFO: the phases a
        poller observes must only ever move forward through the
        pipeline, and every polled doc names the submission's trace."""
        live = make_service(execution="process")
        sub = _submit_loop(live.client, 60_000)
        observed = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            doc = live.client.job(sub["job"])
            assert doc["trace_id"] == sub["trace_id"]
            phase = doc.get("progress", {}).get("phase")
            if phase:
                observed.append(phase)
            if doc["state"] in ("done", "failed", "timeout"):
                break
            time.sleep(0.005)
        assert doc["state"] == "done", doc.get("error")
        assert observed, "never observed a phase heartbeat"
        known = [p for p in observed if p in PHASE_ORDER]
        indexes = [PHASE_ORDER.index(p) for p in known]
        assert indexes == sorted(indexes), (
            f"phases went backwards: {observed}"
        )
        assert observed[-1] == "done"
