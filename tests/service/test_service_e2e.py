"""End-to-end service tests over a live loopback socket."""

import json
import threading

import pytest

from repro.cli import main
from repro.service import SERVICE_API_VERSION, ServiceError, parse_samples

from .conftest import counting_loop_docs


class TestAnalyzeRoundTrip:
    def test_submit_poll_fetch(self, make_service):
        live = make_service()
        sub = live.client.submit(workload="nn")
        assert sub["version"] == SERVICE_API_VERSION
        assert sub["workload"] == "nn"
        assert sub["deduplicated"] is False
        status = live.client.wait(sub["job"])
        assert status["state"] == "done"
        assert status["summary"]["dyn_instrs"] > 0
        assert status["wall_seconds"] > 0
        assert set(status["timings"]) >= {
            "instr1", "instr2_fold", "feedback",
        }
        report = json.loads(live.client.report(sub["job"]))
        assert report["version"] >= 1
        assert report["kind"] == "report"
        assert report["workload"] == "nn"
        metrics = json.loads(live.client.metrics_doc(sub["job"]))
        assert metrics["kind"] == "metrics"
        svg = live.client.flamegraph(sub["job"])
        assert svg.startswith(b"<svg")

    def test_report_bytes_identical_to_cli_json(
        self, make_service, capsys
    ):
        """The service must serve the exact bytes ``repro report --format
        json`` prints -- one renderer, no drift."""
        live = make_service()
        status, report = live.client.analyze(workload="nn")
        assert status["state"] == "done"
        assert main(["report", "nn", "--format", "json"]) == 0
        assert report.decode("utf-8") == capsys.readouterr().out

        metrics = live.client.metrics_doc(status["job"])
        assert main(["metrics", "nn", "--format", "json"]) == 0
        assert metrics.decode("utf-8") == capsys.readouterr().out

    def test_inline_program_submission(self, make_service):
        live = make_service()
        program, state = counting_loop_docs(64, name="tiny_inline")
        sub = live.client.submit(
            program=program, state=state, name="tiny_inline"
        )
        status = live.client.wait(sub["job"])
        assert status["state"] == "done"
        assert status["inline"] is True
        assert status["workload"] == "tiny_inline"
        assert status["summary"]["dyn_instrs"] > 64

    def test_artifacts_before_done_conflict(self, make_service):
        live = make_service()
        program, state = counting_loop_docs(400_000, name="busy")
        sub = live.client.submit(program=program, state=state)
        with pytest.raises(ServiceError) as err:
            live.client.report(sub["job"])
        assert err.value.status == 409
        assert err.value.doc["state"] in ("queued", "running")
        live.client.cancel(sub["job"])


class TestDedup:
    def test_identical_requests_coalesce(self, make_service):
        live = make_service(workers=2)
        first = live.client.submit(workload="nn")
        second = live.client.submit(workload="nn")
        assert second["job"] == first["job"]
        assert second["deduplicated"] is True
        live.client.wait(first["job"])
        # done jobs keep absorbing identical requests
        third = live.client.submit(workload="nn")
        assert third["job"] == first["job"]
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_jobs_executed_total"] == 1
        assert samples["repro_service_jobs_deduped_total"] == 2

    def test_concurrent_identical_submissions_run_once(
        self, make_service
    ):
        live = make_service(workers=2, queue_depth=32)
        n_clients = 8
        barrier = threading.Barrier(n_clients)
        subs = [None] * n_clients
        errors = []

        def _submit(i):
            try:
                barrier.wait()
                subs[i] = live.client.submit(workload="nn")
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=_submit, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        job_ids = {s["job"] for s in subs}
        assert len(job_ids) == 1
        assert sum(s["deduplicated"] for s in subs) == n_clients - 1
        live.client.wait(job_ids.pop())
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_jobs_executed_total"] == 1

    def test_different_options_do_not_coalesce(self, make_service):
        live = make_service(workers=2)
        plain = live.client.submit(workload="nn")
        checked = live.client.submit(workload="nn", crosscheck=True)
        assert checked["job"] != plain["job"]
        status = live.client.wait(checked["job"])
        assert status["crosscheck_violations"] == 0


class TestObservability:
    def test_healthz(self, make_service):
        live = make_service()
        doc = live.client.health()
        assert doc["_http_status"] == 200
        assert doc["status"] == "ok"
        assert doc["workers"] == 1
        assert doc["queue_capacity"] == 16

    def test_metrics_counters_add_up(self, make_service, tmp_path):
        live = make_service(cache_dir=str(tmp_path / "cache"))
        live.client.analyze(workload="nn")
        sub = live.client.submit(workload="nn")  # dedup, no execution
        assert sub["deduplicated"] is True
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_jobs_submitted_total"] == 2
        assert samples["repro_service_jobs_deduped_total"] == 1
        assert samples["repro_service_jobs_executed_total"] == 1
        assert samples["repro_service_jobs_completed_total"] == 1
        assert samples["repro_service_jobs_failed_total"] == 0
        assert samples["repro_service_job_seconds_count"] == 1
        assert samples["repro_service_job_seconds_sum"] > 0
        assert samples["repro_service_workers"] == 1
        assert samples["repro_service_queue_depth"] == 0
        # cp- + ddg- + man- manifest + one rgn- region per function
        from repro.workloads import registry

        n_funcs = len(registry()["nn"]().program.functions)
        assert samples["repro_service_store_puts"] == 3 + n_funcs
        assert samples["repro_service_store_misses"] == 2
        assert samples["repro_service_http_requests_total"] > 0

    def test_warm_hit_counted(self, make_service, tmp_path):
        cache = str(tmp_path / "cache")
        cold = make_service(cache_dir=cache)
        cold.client.analyze(workload="nn")
        cold.service.shutdown(grace=5)

        warm = make_service(cache_dir=cache)
        status, _ = warm.client.analyze(workload="nn")
        assert status["cache"]["hit"] is True
        samples = parse_samples(warm.client.service_metrics())
        assert samples["repro_service_jobs_warm_hits_total"] == 1
        assert samples["repro_service_store_hits"] == 2


class TestHttpErrors:
    def test_unknown_routes(self, make_service):
        live = make_service()
        for path in ("/nope", "/v1/jobs", "/v1/jobs/x/y/z"):
            status, _, _ = live.client.request_raw("GET", path)
            assert status == 404

    def test_unknown_job(self, make_service):
        live = make_service()
        with pytest.raises(ServiceError) as err:
            live.client.job("j999999-deadbeef")
        assert err.value.status == 404

    def test_bad_submissions(self, make_service):
        live = make_service()
        cases = [
            {},  # neither workload nor program
            {"workload": "nn", "program": {"progjson": 1}},  # both
            {"workload": "no_such_workload"},
            {"workload": "nn", "engine": "reference"},
            {"workload": "nn", "timeout": -1},
            {"program": {"progjson": 99, "functions": []}},
        ]
        for body in cases:
            with pytest.raises(ServiceError) as err:
                live.client.submit(**body)
            assert err.value.status == 400, body

    def test_engine_field_only_accepts_fast(self, make_service):
        live = make_service()
        with pytest.raises(ServiceError) as err:
            live.client.submit(workload="nn", engine="reference")
        assert err.value.status == 400
        assert "no longer served" in err.value.doc["error"]
        status, _, _ = live.client.request_raw(
            "POST", "/v1/analyze", {"workload": "nn", "engine": "fast"}
        )
        assert status == 202

    def test_non_json_body_rejected(self, make_service):
        live = make_service()
        import http.client

        conn = http.client.HTTPConnection(
            live.client.host, live.client.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/analyze", body=b"not json {")
            resp = conn.getresponse()
            assert resp.status == 400
            resp.read()
        finally:
            conn.close()

    def test_http_error_counter(self, make_service):
        live = make_service()
        live.client.request_raw("GET", "/nope")
        samples = parse_samples(live.client.service_metrics())
        assert samples["repro_service_http_errors_total"] >= 1


class TestIncremental:
    """``baseline_fingerprint`` on POST /v1/analyze."""

    @staticmethod
    def _edited_kmeans_docs():
        from repro.incr import append_sink_instr
        from repro.isa.progjson import encode_program, encode_state
        from repro.workloads import registry

        spec = registry()["kmeans"]()
        program = append_sink_instr(spec.program, "assign_points")
        return (
            encode_program(program),
            encode_state(*spec.make_state()),
        )

    def test_incremental_job_reports_account_and_matches_cold(
        self, make_service, tmp_path
    ):
        from repro.isa import fingerprint_program
        from repro.workloads import registry

        live = make_service(cache_dir=str(tmp_path / "cache"))
        live.client.analyze(workload="kmeans")  # warm the baseline

        baseline = fingerprint_program(registry()["kmeans"]().program)
        program, state = self._edited_kmeans_docs()
        sub = live.client.submit(
            program=program,
            state=state,
            name="kmeans-edit",
            baseline_fingerprint=baseline,
        )
        status = live.client.wait(sub["job"])
        assert status["state"] == "done"
        assert status["options"]["baseline"] == baseline
        inc = status["incremental"]
        assert inc["mode"] == "incremental"
        assert set(inc["frontier"]) == {"assign_points", "update_centers"}
        assert inc["regions_reused"] == 1
        inc_report = live.client.report(sub["job"])

        # a cold service without the baseline serves identical bytes
        cold = make_service(cache_dir=str(tmp_path / "cold"))
        cold_sub = cold.client.submit(
            program=program, state=state, name="kmeans-edit"
        )
        cold_status = cold.client.wait(cold_sub["job"])
        assert "incremental" not in cold_status
        assert cold.client.report(cold_sub["job"]) == inc_report

    def test_baseline_coalesces_with_cold_request(
        self, make_service, tmp_path
    ):
        """baseline is excluded from the job key: same program, with
        and without a baseline, is the same work."""
        from repro.isa import fingerprint_program
        from repro.workloads import registry

        live = make_service(cache_dir=str(tmp_path / "cache"))
        baseline = fingerprint_program(registry()["kmeans"]().program)
        program, state = self._edited_kmeans_docs()
        first = live.client.submit(program=program, state=state, name="e")
        live.client.wait(first["job"])
        second = live.client.submit(
            program=program,
            state=state,
            name="e",
            baseline_fingerprint=baseline,
        )
        assert second["deduplicated"] is True
        assert second["job"] == first["job"]

    def test_malformed_baseline_rejected(self, make_service, tmp_path):
        live = make_service(cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ServiceError) as err:
            live.client.submit(
                workload="kmeans", baseline_fingerprint="not-hex"
            )
        assert err.value.status == 400

    def test_baseline_without_store_rejected(self, make_service):
        live = make_service()  # no cache_dir -> no artifact store
        with pytest.raises(ServiceError) as err:
            live.client.submit(
                workload="kmeans", baseline_fingerprint="ab" * 32
            )
        assert err.value.status == 400
