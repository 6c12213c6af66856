"""The job-watch observer: deadline, cancellation and heartbeats, one
clock read per CHECK_EVERY executed instructions."""

import threading
import time

import pytest

from repro.isa import Memory, ProgramBuilder, run_program
from repro.service import executor
from repro.service.executor import (
    CHECK_EVERY,
    DeadlineObserver,
    JobCancelled,
    JobTimeout,
)


def _loop(iters):
    """(program, args, memory) of a loop running ~4 * iters instrs."""
    pb = ProgramBuilder("watch")
    with pb.function("main", ["a", "n"]) as f:
        with f.loop(0, "n") as i:
            v = f.load("a", index=0)
            f.store("a", f.add(v, i), index=0)
        f.halt()
    memory = Memory()
    base = memory.alloc(1, 0)
    return pb.build(), [base, iters], memory


def _run(observer, iters, engine="fast"):
    program, args, memory = _loop(iters)
    _, stats = run_program(
        program, args=args, memory=memory, observers=[observer],
        engine=engine, fuel=10**9,
    )
    return stats


class _Clock:
    """Stand-in for the executor's ``time`` module that counts reads."""

    def __init__(self, now=0.0):
        self.now = now
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.now


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_deadline_passing_mid_run_raises(engine):
    observer = DeadlineObserver(time.monotonic() + 0.05)
    with pytest.raises(JobTimeout):
        _run(observer, 50_000_000, engine=engine)
    # it fired mid-run, far short of the loop's ~200M instructions
    assert 0 < observer.dyn_instrs < 50_000_000


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_clock_read_at_most_once_per_check_every(monkeypatch, engine):
    clock = _Clock()
    monkeypatch.setattr(executor, "time", clock)
    beats = []
    observer = DeadlineObserver(
        1e9, beat=lambda **fields: beats.append(fields["dyn_instrs"])
    )
    stats = _run(observer, 20_000, engine=engine)
    assert observer.dyn_instrs == stats.dyn_instrs
    assert 1 <= clock.reads <= stats.dyn_instrs // CHECK_EVERY
    # the clock never advances, so only the first check beats
    assert len(beats) == 1 and beats[0] >= CHECK_EVERY


def test_heartbeats_follow_the_clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(executor, "time", clock)
    beats = []

    def beat(**fields):
        beats.append(fields["dyn_instrs"])
        clock.now += 1.0  # every later check is past the interval

    observer = DeadlineObserver(None, beat=beat)
    stats = _run(observer, 20_000)
    assert len(beats) == clock.reads == stats.dyn_instrs // CHECK_EVERY
    assert beats == sorted(beats)


def test_no_deadline_and_no_beat_reads_no_clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(executor, "time", clock)
    _run(DeadlineObserver(None), 20_000)
    assert clock.reads == 0


def test_cancel_mid_run_raises():
    cancel = threading.Event()

    def beat(**fields):
        cancel.set()

    observer = DeadlineObserver(None, cancel_event=cancel, beat=beat)
    with pytest.raises(JobCancelled):
        _run(observer, 1_000_000)
    assert observer.dyn_instrs < 4 * CHECK_EVERY
