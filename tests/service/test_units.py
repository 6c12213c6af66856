"""Unit tests for the service building blocks (no sockets)."""

import io
import json
import threading

import pytest

from repro.service import (
    BoundedJobQueue,
    Job,
    JobOptions,
    JobRegistry,
    JobState,
    MetricsRegistry,
    QueueFull,
    derive_job_key,
    parse_samples,
)
from repro.service.jsonlog import JsonLogger
from repro.service.submission import BadRequest, build_options, build_spec


def _job(key="k" * 64, job_id="j000001-kkkkkkkk"):
    return Job(
        id=job_id, key=key, workload="w", spec=None, options=JobOptions()
    )


class TestBoundedJobQueue:
    def test_fifo_and_positions(self):
        q = BoundedJobQueue(3)
        a, b = _job(job_id="a"), _job(job_id="b")
        assert q.put(a) == 0
        assert q.put(b) == 1
        assert q.position(b) == 1
        assert len(q) == 2
        assert q.get(timeout=0.1) is a
        assert q.position(b) == 0

    def test_put_full_raises_not_blocks(self):
        q = BoundedJobQueue(1)
        q.put(_job(job_id="a"))
        with pytest.raises(QueueFull) as err:
            q.put(_job(job_id="b"))
        assert err.value.depth == 1

    def test_get_timeout_returns_none(self):
        q = BoundedJobQueue(1)
        assert q.get(timeout=0.01) is None

    def test_remove_and_drain(self):
        q = BoundedJobQueue(4)
        a, b, c = (_job(job_id=x) for x in "abc")
        for j in (a, b, c):
            q.put(j)
        assert q.remove(b) is True
        assert q.remove(b) is False
        assert q.drain() == [a, c]
        assert len(q) == 0


class TestJobTransitions:
    def test_transition_is_atomic_gate(self):
        job = _job()
        assert job.transition((JobState.QUEUED,), JobState.RUNNING)
        assert job.started_at is not None
        # a stale cancel loses the race cleanly
        assert not job.transition((JobState.QUEUED,), JobState.CANCELLED)
        assert job.transition((JobState.RUNNING,), JobState.DONE)
        assert job.finished_at is not None
        assert job.terminal

    def test_transition_hook_runs_before_the_state_is_visible(self):
        seen = []
        job = _job()
        job.on_transition = lambda j, state: seen.append(
            (state, j.state, j.started_at is not None,
             j.finished_at is not None)
        )
        job.transition((JobState.QUEUED,), JobState.RUNNING)
        assert not job.transition((JobState.QUEUED,), JobState.CANCELLED)
        job.transition((JobState.RUNNING,), JobState.DONE)
        # the daemon counts a job in the hook, so a poller that sees
        # the new state also sees the count
        assert seen == [
            ("running", "queued", True, False),
            ("done", "running", True, True),
        ]

    def test_status_doc_shape(self):
        doc = _job().status_doc(1)
        assert doc["version"] == 1
        assert doc["state"] == "queued"
        assert "engine" not in doc["options"]
        assert doc["cache"] == {
            "stage1_cached": False,
            "stage2_cached": False,
            "hit": False,
        }


class TestJobRegistry:
    def test_dedup_absorbs_live_and_done(self):
        reg = JobRegistry()
        job, deduped = reg.submit("k1", lambda jid: _job(job_id=jid))
        assert not deduped
        again, deduped = reg.submit("k1", lambda jid: _job(job_id=jid))
        assert deduped and again is job
        job.transition((JobState.QUEUED,), JobState.RUNNING)
        job.transition((JobState.RUNNING,), JobState.DONE)
        done, deduped = reg.submit("k1", lambda jid: _job(job_id=jid))
        assert deduped and done is job

    def test_failed_jobs_are_replaced(self):
        reg = JobRegistry()
        job, _ = reg.submit("k1", lambda jid: _job(job_id=jid))
        job.transition((JobState.QUEUED,), JobState.CANCELLED)
        fresh, deduped = reg.submit("k1", lambda jid: _job(job_id=jid))
        assert not deduped and fresh is not job

    def test_retention_evicts_terminal_only(self):
        reg = JobRegistry(retain=2)
        keep, _ = reg.submit("live", lambda jid: _job(job_id=jid))
        for n in range(4):
            job, _ = reg.submit(f"k{n}", lambda jid: _job(job_id=jid))
            job.transition((JobState.QUEUED,), JobState.RUNNING)
            job.transition((JobState.RUNNING,), JobState.DONE)
        # the live job survives even though it is the oldest
        assert reg.get(keep.id) is keep
        assert len(reg.jobs()) <= 3  # live + at most retain terminal

    def test_dedup_hit_refreshes_retention(self):
        reg = JobRegistry(retain=2)

        def submit(key):
            return reg.submit(key, lambda jid: _job(key=key, job_id=jid))

        def finish(key):
            job, _ = submit(key)
            job.transition((JobState.QUEUED,), JobState.RUNNING)
            job.transition((JobState.RUNNING,), JobState.DONE)
            return job

        a, b = finish("A"), finish("B")
        again, deduped = submit("A")
        assert deduped and again is a
        finish("C")
        # the client was just handed A: the untouched B goes first
        assert reg.get(a.id) is a
        assert reg.get(b.id) is None

    def test_ids_are_sequential_and_keyed(self):
        reg = JobRegistry()
        job, _ = reg.submit("a" * 64, lambda jid: _job(job_id=jid))
        assert job.id == f"j000001-{'a' * 8}"


class TestMetrics:
    def test_render_and_parse_round_trip(self):
        m = MetricsRegistry()
        c = m.counter("t_total", "things")
        g = m.gauge("t_gauge", "level")
        h = m.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        c.inc()
        c.inc(2)
        g.set(7)
        h.observe(0.05)
        h.observe(5.0)
        text = m.render()
        assert "# TYPE t_total counter" in text
        assert "# TYPE t_seconds histogram" in text
        samples = parse_samples(text)
        assert samples["t_total"] == 3
        assert samples["t_gauge"] == 7
        assert samples['t_seconds_bucket{le="0.1"}'] == 1
        assert samples['t_seconds_bucket{le="+Inf"}'] == 2
        assert samples["t_seconds_count"] == 2
        assert samples["t_seconds_sum"] == 5.05

    def test_duplicate_metric_rejected(self):
        m = MetricsRegistry()
        m.counter("dup_total", "x")
        with pytest.raises(ValueError, match="duplicate"):
            m.counter("dup_total", "y")

    def test_thread_safety_of_counters(self):
        m = MetricsRegistry()
        c = m.counter("hammer_total", "x")

        def _spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=_spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestJsonLogger:
    def test_lines_are_json_with_bound_context(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream, level="debug").bind(service="t")
        log.info("hello", answer=42)
        log.bind(worker=3).warning("late")
        lines = [json.loads(x) for x in stream.getvalue().splitlines()]
        assert lines[0]["event"] == "hello"
        assert lines[0]["level"] == "info"
        assert lines[0]["service"] == "t"
        assert lines[0]["answer"] == 42
        assert lines[1]["worker"] == 3

    def test_level_filtering(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream, level="warning")
        log.debug("nope")
        log.info("nope")
        log.error("yes")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["level"] == "error"

    def test_unserializable_values_never_raise(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream)
        log.info("odd", thing=object())
        (line,) = stream.getvalue().splitlines()
        assert json.loads(line)["event"] == "odd"


#: bodies whose option values have the wrong JSON type; each must be a
#: client error, never an uncaught conversion error or a coerced guess
MISTYPED_BODIES = [
    {"fuel": "abc"},
    {"fuel": [1]},
    {"fuel": 1.5},
    {"fuel": True},
    {"clamp": "x"},
    {"clamp": 2.5},
    {"timeout": "soon"},
    {"timeout": [1]},
    {"timeout": True},
    {"crosscheck": "false"},
    {"crosscheck": 1},
    {"fold_jobs": 2},
    {"fold_jobs": 0},
    {"fold_jobs": "1"},
    {"fold_jobs": 1.5},
    {"fold_jobs": 1.0},
    {"fold_jobs": True},
    {"fold_jobs": None},
]


class TestBuildOptions:
    def test_defaults(self):
        opts = build_options({})
        assert opts == JobOptions()
        assert "fold_jobs" not in opts.as_dict()

    def test_well_typed_values_pass_through(self):
        opts = build_options(
            {"fuel": 1000, "clamp": 64, "timeout": 5, "crosscheck": True}
        )
        assert (opts.fuel, opts.clamp, opts.crosscheck) == (1000, 64, True)
        assert opts.timeout == 5.0 and isinstance(opts.timeout, float)
        assert build_options({"timeout": 0.5}).timeout == 0.5
        assert build_options({"clamp": None}).clamp is None

    def test_default_timeout_applies_when_absent(self):
        assert build_options({}, default_timeout=3.0).timeout == 3.0
        assert build_options({"timeout": 1}, default_timeout=3.0).timeout == 1

    def test_fold_jobs_one_is_the_absent_field(self):
        assert build_options({"fold_jobs": 1}) == build_options({})

    @pytest.mark.parametrize("body", MISTYPED_BODIES, ids=repr)
    def test_mistyped_values_are_bad_requests(self, body):
        with pytest.raises(BadRequest):
            build_options(body)

    @pytest.mark.parametrize("value", ["ab" * 32, "not-hex", None])
    def test_baseline_fingerprint_is_a_bad_request(self, value):
        with pytest.raises(BadRequest, match="no longer served"):
            build_options({"baseline_fingerprint": value})


class TestJobKey:
    """The daemon's dedup key: options that change the answer move it,
    ones that do not (a timeout, the legacy ``fold_jobs: 1``) leave it."""

    @staticmethod
    def key(**fields):
        body = {"workload": "nn", **fields}
        return derive_job_key(build_spec(body)[0], build_options(body))

    def test_fold_jobs_one_keys_like_the_absent_field(self):
        assert self.key(fold_jobs=1) == self.key()

    def test_options_that_change_the_answer_move_the_key(self):
        base = self.key()
        assert self.key(fuel=1000) != base
        assert self.key(crosscheck=True) != base
        assert self.key(timeout=9) == base
