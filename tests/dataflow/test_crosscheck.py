"""Cross-checker tests: a clean analysis passes, tampered ones don't.

Each tamper test injects one specific lie into a finished
:class:`AnalysisResult` -- a dropped dependence, an invented one, a
miscount, a shape violation, a bogus parallel claim -- and asserts the
matching sanitizer catches exactly that lie.
"""

import dataclasses
import time

import pytest

from repro.ddg.graph import DepKey
from repro.isa import Memory, ProgramBuilder
from repro.isa.events import Instrumentation
from repro.pipeline import ProgramSpec, analyze
from repro.dataflow import CheckOptions, run_crosscheck
from repro.dataflow.crosscheck import opposite_engine
from repro.service.executor import DeadlineObserver, JobTimeout


def veccopy_spec(n=8):
    pb = ProgramBuilder("veccopy")
    with pb.function("main", ["A", "B", "n"]) as f:
        with f.loop(0, "n") as i:
            f.store("B", f.load("A", index=i), index=i)
        f.halt()

    def make_state():
        mem = Memory()
        a = mem.alloc_array([float(i) for i in range(n)])
        b = mem.alloc(n, init=0.0)
        return (a, b, n), mem

    return ProgramSpec(name="veccopy", program=pb.build(),
                       make_state=make_state)


def prefix_sum_spec(n=8):
    """B[i] = B[i-1] + A[i]: the loop is genuinely sequential."""
    pb = ProgramBuilder("prefix")
    with pb.function("main", ["A", "B", "n"]) as f:
        with f.loop(1, "n") as i:
            prev = f.load("B", index=f.sub(i, 1))
            a = f.load("A", index=i)
            f.store("B", f.fadd(prev, a), index=i)
        f.halt()

    def make_state():
        mem = Memory()
        a = mem.alloc_array([float(i) for i in range(n)])
        b = mem.alloc(n, init=0.0)
        return (a, b, n), mem

    return ProgramSpec(name="prefix", program=pb.build(),
                       make_state=make_state)


def recheck(result, **only):
    opts = CheckOptions(
        recount=only.get("recount", False),
        dep_shape=only.get("dep_shape", False),
        affine_static=only.get("affine_static", False),
        parallel_claims=only.get("parallel_claims", False),
    )
    return run_crosscheck(result, opts)


class _CountStarts(Instrumentation):
    def __init__(self):
        self.starts = 0

    def on_start(self, main, entry_bb):
        self.starts += 1


class _ExpireOnRecount(DeadlineObserver):
    """No deadline for the two profiled executions; already past once
    the third execution -- the recount -- starts."""

    def __init__(self):
        super().__init__(deadline=None)
        self.starts = 0

    def on_start(self, main, entry_bb):
        self.starts += 1
        if self.starts == 3:
            self.deadline = time.monotonic() - 1.0


class TestRecountObserved:
    """``extra_observers`` ride along the recount execution too, so a
    service job's deadline/cancel observer stays live through it."""

    def test_passive_observer_sees_the_recount(self):
        plain, checked = _CountStarts(), _CountStarts()
        analyze(veccopy_spec(), extra_observers=[plain])
        analyze(veccopy_spec(), crosscheck=True, extra_observers=[checked])
        assert (plain.starts, checked.starts) == (2, 3)

    def test_deadline_passing_during_recount_times_out(self):
        observer = _ExpireOnRecount()
        # enough instructions for the reference engine's periodic check
        with pytest.raises(JobTimeout):
            analyze(
                veccopy_spec(n=2000),
                crosscheck=True,
                extra_observers=[observer],
            )
        assert observer.starts == 3


class TestCleanRuns:
    def test_all_checks_pass_both_engines(self):
        for engine in ("fast", "reference"):
            result = analyze(veccopy_spec(), engine=engine,
                             crosscheck=True)
            report = result.crosscheck
            assert report.ok, report.render()
            assert list(report.checks_run) == [
                "recount", "dep-shape", "affine-static", "parallel-claim"
            ]
            assert report.recount_engine == opposite_engine(engine)

    def test_sequential_loop_passes_without_parallel_claim(self):
        result = analyze(prefix_sum_spec(), crosscheck=True)
        assert result.crosscheck.ok, result.crosscheck.render()


class TestRecountTamper:
    def test_dropped_dependence_detected(self):
        result = analyze(veccopy_spec())
        key = next(iter(result.folded.deps))
        del result.folded.deps[key]
        report = recheck(result, recount=True)
        assert not report.ok
        assert any("dropped" in v.message for v in report.violations)

    def test_invented_dependence_detected(self):
        result = analyze(veccopy_spec())
        key, fd = next(iter(result.folded.deps.items()))
        fake = DepKey(src=(999, key.src[1]), dst=key.dst, kind=key.kind)
        result.folded.deps[fake] = dataclasses.replace(fd, key=fake)
        report = recheck(result, recount=True)
        assert any("invented" in v.message for v in report.violations)

    def test_count_mismatch_detected(self):
        result = analyze(veccopy_spec())
        fd = next(iter(result.folded.deps.values()))
        fd.count += 1
        report = recheck(result, recount=True)
        assert any("folded count" in v.message for v in report.violations)

    def test_statement_count_mismatch_detected(self):
        result = analyze(veccopy_spec())
        fs = next(iter(result.folded.statements.values()))
        fs.count += 3
        report = recheck(result, recount=True)
        assert any("folded count" in v.message for v in report.violations)


class TestDepShapeTamper:
    def test_wrong_kind_detected(self):
        result = analyze(prefix_sum_spec())
        key, fd = next(
            (k, d) for k, d in result.folded.deps.items() if k.kind == "flow"
        )
        del result.folded.deps[key]
        bad = DepKey(src=key.src, dst=key.dst, kind="anti")
        result.folded.deps[bad] = dataclasses.replace(fd, key=bad)
        report = recheck(result, dep_shape=True)
        assert any("anti dependence" in v.message for v in report.violations)

    def test_nonexistent_endpoint_detected(self):
        result = analyze(veccopy_spec())
        key, fd = next(iter(result.folded.deps.items()))
        bad = DepKey(src=(999, key.src[1]), dst=key.dst, kind=key.kind)
        result.folded.deps[bad] = dataclasses.replace(fd, key=bad)
        report = recheck(result, dep_shape=True)
        assert any("does not exist" in v.message for v in report.violations)

    def test_reg_dep_from_store_detected(self):
        # a store defines no register: a "reg" edge out of it is a lie
        result = analyze(prefix_sum_spec())
        key, fd = next(
            (k, d) for k, d in result.folded.deps.items() if k.kind == "flow"
        )
        bad = DepKey(src=key.src, dst=key.dst, kind="reg")
        result.folded.deps[bad] = dataclasses.replace(fd, key=bad)
        report = recheck(result, dep_shape=True)
        assert any("defines no register" in v.message
                   for v in report.violations)

    def test_unrelated_reg_dep_detected(self):
        # thread a reg edge between two real instructions with no
        # static def->use path between them
        result = analyze(veccopy_spec())
        key, fd = next(
            (k, d) for k, d in result.folded.deps.items() if k.kind == "reg"
        )
        # reverse it: the consumer does not feed the producer
        bad = DepKey(src=key.dst, dst=key.src, kind="reg")
        if bad in result.folded.deps:  # pragma: no cover - tiny kernel
            pytest.skip("reversed edge exists")
        result.folded.deps[bad] = dataclasses.replace(fd, key=bad)
        report = recheck(result, dep_shape=True)
        assert any("does not statically reach" in v.message
                   for v in report.violations) or \
            any("defines no register" in v.message
                for v in report.violations)


class TestParallelClaimTamper:
    def test_false_parallel_claim_detected(self):
        result = analyze(prefix_sum_spec())
        tampered = 0
        for node in result.forest.walk():
            if node.parallel is False:
                node.parallel = True
                tampered += 1
        assert tampered, "expected a sequential loop to tamper"
        report = recheck(result, parallel_claims=True)
        assert not report.ok
        assert all(v.check == "parallel-claim" for v in report.violations)

    def test_honest_claims_pass(self):
        result = analyze(veccopy_spec())
        report = recheck(result, parallel_claims=True)
        assert report.ok, report.render()
        assert report.stats["parallel_claims_checked"] >= 1
