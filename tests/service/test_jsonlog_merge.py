"""jsonlog: (ts, pid, seq) total order, merge determinism, drops.

A multi-process deployment produces one JSON-lines log per process;
following a request end-to-end means merging them.  These tests pin
the merge key contract: every line carries ``pid`` and a per-process
monotonic ``seq``, :func:`merge_records` orders any interleaving of
the same lines identically, and lines lost to encode/write failures
are counted, never raised.
"""

import io
import json
import os
import random
import threading

from repro.service.jsonlog import (
    JsonLogger,
    NullLogger,
    dropped_lines,
    merge_records,
)


def capture_lines(logger_level="debug"):
    stream = io.StringIO()
    return JsonLogger(stream=stream, level=logger_level), stream


def records_of(stream):
    return [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if line
    ]


class TestRecordFields:
    def test_every_line_carries_pid_and_seq(self):
        logger, stream = capture_lines()
        logger.info("a")
        logger.info("b")
        for record in records_of(stream):
            assert record["pid"] == os.getpid()
            assert isinstance(record["seq"], int)

    def test_seq_is_strictly_increasing_per_process(self):
        logger, stream = capture_lines()
        for i in range(20):
            logger.info("tick", i=i)
        seqs = [r["seq"] for r in records_of(stream)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_seq_unique_across_threads(self):
        logger, stream = capture_lines()

        def spam():
            for _ in range(50):
                logger.info("t")

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [r["seq"] for r in records_of(stream)]
        assert len(seqs) == 200
        assert len(set(seqs)) == 200

    def test_bound_context_and_fields_survive(self):
        logger, stream = capture_lines()
        logger.bind(job="j-1", trace_id="a" * 32).info(
            "job_start", worker=0
        )
        (record,) = records_of(stream)
        assert record["job"] == "j-1"
        assert record["trace_id"] == "a" * 32
        assert record["worker"] == 0
        assert record["event"] == "job_start"


class TestMergeRecords:
    def make_log(self, pid, count, ts):
        return [
            {"ts": ts, "pid": pid, "seq": seq, "event": f"p{pid}-{seq}"}
            for seq in range(1, count + 1)
        ]

    def test_merge_is_deterministic_under_shuffling(self):
        lines = (
            self.make_log(100, 10, ts=5.0)
            + self.make_log(200, 10, ts=5.0)
            + self.make_log(100, 5, ts=4.0)
        )
        reference = merge_records(lines)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(lines)
            rng.shuffle(shuffled)
            assert merge_records(shuffled) == reference

    def test_wall_clock_orders_across_processes(self):
        early = {"ts": 1.0, "pid": 900, "seq": 1, "event": "early"}
        late = {"ts": 2.0, "pid": 100, "seq": 1, "event": "late"}
        assert merge_records([late, early]) == [early, late]

    def test_seq_breaks_timestamp_ties_within_a_process(self):
        a = {"ts": 3.0, "pid": 7, "seq": 2, "event": "second"}
        b = {"ts": 3.0, "pid": 7, "seq": 1, "event": "first"}
        assert merge_records([a, b]) == [b, a]

    def test_foreign_lines_do_not_raise(self):
        foreign = {"event": "no-ts-no-pid"}
        ours = {"ts": 1.0, "pid": 1, "seq": 1, "event": "ok"}
        merged = merge_records([ours, foreign])
        assert merged[0] is foreign

    def test_two_replica_interleave(self):
        # simulate two replicas whose files were concatenated in
        # opposite orders: the merges must agree line for line
        replica_a = self.make_log(111, 20, ts=9.0)
        replica_b = self.make_log(222, 20, ts=9.0)
        assert merge_records(replica_a + replica_b) == merge_records(
            replica_b + replica_a
        )


class TestDroppedLines:
    def test_write_failure_counts_not_raises(self):
        class DeadStream(io.StringIO):
            def write(self, _):
                raise OSError("broken pipe")

        logger = JsonLogger(stream=DeadStream(), level="info")
        before = dropped_lines()
        logger.info("doomed")
        logger.info("doomed_again")
        assert dropped_lines() == before + 2

    def test_encode_failure_emits_fallback_and_counts(self):
        logger, stream = capture_lines()
        circular = {}
        circular["self"] = circular
        before = dropped_lines()
        logger.info("bad_payload", payload=circular)
        assert dropped_lines() == before + 1
        (record,) = records_of(stream)
        assert record["event"] == "log_encode_failed"
        assert record["original_event"] == "bad_payload"
        assert record["pid"] == os.getpid()
        assert isinstance(record["seq"], int)

    def test_null_logger_emits_nothing(self):
        before = dropped_lines()
        NullLogger().error("ignored")
        assert dropped_lines() == before
