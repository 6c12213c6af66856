"""Process-pool execution: byte identity, drain, cancel, crashes.

Everything here drives a live daemon running ``execution="process"``
over the HTTP surface, mirroring the thread-mode tests -- the point of
the process pool is that clients cannot tell the difference (except
that cold throughput scales with cores and a dead worker can no longer
wedge a job).
"""

import os
import signal
import time

import pytest

from repro.service import JobFailed, ServiceError, parse_samples

from .conftest import counting_loop_docs

SLOW_ITERS = 2_000_000
BRIEF_ITERS = 60_000


def _submit_loop(client, iters, **options):
    program, state = counting_loop_docs(iters, name=f"loop_{iters}")
    return client.submit(program=program, state=state, **options)


def _wait_for_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.job(job_id)
        if doc["state"] == state:
            return doc
        time.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {state!r} (last: {doc['state']})"
    )


class TestByteIdentity:
    def test_artifacts_identical_to_thread_mode(
        self, make_service, tmp_path
    ):
        """The same submission produces the same bytes whether the
        analysis ran in a worker thread or a worker process (and a
        fresh daemon sharing the store directory serves them warm)."""
        program, state = counting_loop_docs(BRIEF_ITERS, name="ident")
        outputs = {}
        for mode in ("thread", "process"):
            live = make_service(
                execution=mode, cache_dir=str(tmp_path / mode)
            )
            sub = live.client.submit(program=program, state=state)
            status = live.client.wait(sub["job"], timeout=60)
            assert status["state"] == "done"
            outputs[mode] = (
                live.client.report(sub["job"]),
                live.client.metrics_doc(sub["job"]),
                live.client.flamegraph(sub["job"]),
            )
        assert outputs["thread"] == outputs["process"]

    def test_warm_hits_through_shared_store_directory(
        self, make_service, tmp_path
    ):
        """Worker processes read and write the daemon's cache
        directory: a re-submission to a *fresh* process-mode daemon is
        a pure artifact decode, and the hit shows up in the daemon's
        own store counters (shipped back over the pipe)."""
        program, state = counting_loop_docs(BRIEF_ITERS, name="warm")
        cache = str(tmp_path / "store")
        cold = make_service(execution="process", cache_dir=cache)
        sub = cold.client.submit(program=program, state=state)
        cold_status = cold.client.wait(sub["job"], timeout=60)
        assert cold_status["cache"]["hit"] is False
        cold_report = cold.client.report(sub["job"])
        cold.service.shutdown(grace=5)

        warm = make_service(execution="process", cache_dir=cache)
        sub = warm.client.submit(program=program, state=state)
        warm_status = warm.client.wait(sub["job"], timeout=60)
        assert warm_status["cache"]["hit"] is True
        assert warm.client.report(sub["job"]) == cold_report
        samples = parse_samples(warm.client.service_metrics())
        assert samples["repro_service_store_hits"] >= 1

    def test_dedup_survives_process_mode(self, make_service):
        """Two identical submissions are one execution: the process
        boundary does not break content-addressed coalescing."""
        live = make_service(execution="process", workers=2)
        first = _submit_loop(live.client, SLOW_ITERS)
        _wait_for_state(live.client, first["job"], "running")
        second = _submit_loop(live.client, SLOW_ITERS)
        assert second["deduplicated"] is True
        assert second["job"] == first["job"]
        live.client.cancel(first["job"])


class TestTopology:
    def test_healthz_and_metrics_surface_process_workers(
        self, make_service
    ):
        live = make_service(execution="process", workers=2)
        doc = live.client.health(raise_for_status=True)
        assert doc["execution"] == "process"
        workers = doc["process_workers"]
        assert len(workers) == 2
        assert all(w["alive"] for w in workers)
        assert all(isinstance(w["pid"], int) for w in workers)
        text = live.client.service_metrics()
        assert 'repro_service_execution_info{mode="process"}' in text
        assert 'repro_service_worker_pid{worker="0"}' in text
        assert 'repro_service_worker_restarts{worker="1"} 0' in text
        samples = parse_samples(text)
        assert samples["repro_service_worker_restarts_total"] == 0


class TestDeadlinesAndCancel:
    def test_timeout_crosses_the_process_boundary(self, make_service):
        """The deadline observer runs *inside* the worker process; the
        job still lands ``timeout`` with no artifacts and no restart
        (cooperative, not a kill)."""
        live = make_service(execution="process")
        sub = _submit_loop(live.client, SLOW_ITERS, timeout=0.05)
        with pytest.raises(JobFailed) as err:
            live.client.wait(sub["job"], timeout=60)
        assert err.value.status_doc["state"] == "timeout"
        assert "timed out after 0.05s" in err.value.status_doc["error"]
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_jobs_timeout_total"] == 1
        assert samples["repro_service_worker_restarts_total"] == 0

    def test_cancel_of_running_process_job_is_prompt(self, make_service):
        """Cancelling a job mid-execution in a worker process is
        honored at heartbeat granularity, not at job granularity: the
        slow job dies in well under the time it would need to finish,
        and the worker survives to run the next job."""
        live = make_service(execution="process")
        sub = _submit_loop(live.client, SLOW_ITERS * 4)
        _wait_for_state(live.client, sub["job"], "running")
        t0 = time.monotonic()
        live.client.cancel(sub["job"])
        doc = _wait_for_state(live.client, sub["job"], "cancelled")
        assert time.monotonic() - t0 < 10.0
        assert doc["error"] == "cancelled while running"
        follow = _submit_loop(live.client, BRIEF_ITERS)
        assert live.client.wait(follow["job"], timeout=60)["state"] == "done"
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_worker_restarts_total"] == 0

    def test_drain_finishes_in_flight_and_cancels_queued(
        self, make_service
    ):
        """SIGTERM semantics across the process boundary: the running
        process job finishes inside the grace window (clean drain),
        queued jobs are cancelled without ever executing."""
        live = make_service(execution="process", workers=1)
        running = _submit_loop(live.client, 150_000)
        _wait_for_state(live.client, running["job"], "running")
        queued = _submit_loop(live.client, 150_001)
        clean = live.service.shutdown(grace=60)
        assert clean is True
        running_job = live.service.registry.get(running["job"])
        queued_job = live.service.registry.get(queued["job"])
        assert running_job.state == "done"
        assert queued_job.state == "cancelled"
        assert queued_job.error == "cancelled: service draining"
        assert queued_job.started_at is None

    def test_drain_past_grace_cancels_running_process_job(
        self, make_service
    ):
        """A drain whose grace expires falls back to cooperative
        cancellation of the in-flight process job -- the daemon never
        has to kill the worker to shut down."""
        live = make_service(execution="process", workers=1)
        running = _submit_loop(live.client, SLOW_ITERS * 8)
        _wait_for_state(live.client, running["job"], "running")
        clean = live.service.shutdown(grace=0.1)
        assert clean is False
        job = live.service.registry.get(running["job"])
        assert job.state == "cancelled"


class TestCrashRecovery:
    def test_kill_mid_job_marks_failed_and_respawns(self, make_service):
        """SIGKILL the worker process mid-analysis: the job lands
        ``failed`` with a machine-readable ``worker_crashed`` record
        (pre-procpool it stayed ``running`` forever), the restart
        counter increments, the slot gets a fresh pid, and the next
        job runs normally."""
        live = make_service(execution="process", workers=1)
        sub = _submit_loop(live.client, SLOW_ITERS * 4)
        _wait_for_state(live.client, sub["job"], "running")
        doc = live.client.health(raise_for_status=True)
        old_pid = doc["process_workers"][0]["pid"]
        os.kill(old_pid, signal.SIGKILL)
        failed = _wait_for_state(live.client, sub["job"], "failed")
        assert failed["error"].startswith("worker_crashed")
        assert failed["crash"]["kind"] == "worker_crashed"
        assert failed["crash"]["worker"] == 0
        with pytest.raises(ServiceError) as err:
            live.client.report(sub["job"])
        assert err.value.status == 409

        def _respawned():
            d = live.client.health(raise_for_status=True)
            w = d["process_workers"][0]
            return w["alive"] and w["pid"] != old_pid

        deadline = time.monotonic() + 30
        while not _respawned():
            assert time.monotonic() < deadline, "worker never respawned"
            time.sleep(0.05)
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_worker_restarts_total"] == 1
        assert samples["repro_service_jobs_failed_total"] == 1
        follow = _submit_loop(live.client, BRIEF_ITERS)
        assert live.client.wait(follow["job"], timeout=60)["state"] == "done"

    def test_crashed_key_can_be_resubmitted(self, make_service):
        """A worker-crash failure does not poison the dedup key: the
        identical submission gets a fresh job and succeeds."""
        live = make_service(execution="process", workers=1)
        sub = _submit_loop(live.client, SLOW_ITERS * 4)
        _wait_for_state(live.client, sub["job"], "running")
        pid = live.client.health(raise_for_status=True)[
            "process_workers"
        ][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        _wait_for_state(live.client, sub["job"], "failed")
        retry = _submit_loop(live.client, SLOW_ITERS * 4)
        assert retry["deduplicated"] is False
        assert retry["job"] != sub["job"]
        live.client.cancel(retry["job"])
