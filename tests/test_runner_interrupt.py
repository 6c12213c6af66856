"""Ctrl-C handling in run_suite: partial results, never a traceback."""

import concurrent.futures

from repro.runner import WorkloadResult, render_suite_table, run_suite


def interrupting_factory():
    """Factory standing in for the user hitting Ctrl-C mid-suite."""
    raise KeyboardInterrupt()


class TestInlineInterrupt:
    def test_partial_results_in_task_order(self):
        results = run_suite(
            ["nn", interrupting_factory, "nw"], jobs=1
        )
        assert [r.name for r in results] == [
            "nn", "interrupting_factory", "nw",
        ]
        assert results[0].ok
        assert not results[1].ok and results[1].interrupted
        assert results[1].status() == "stopped"
        assert "interrupted (SIGINT)" in results[1].error
        # everything after the interrupt is marked, not analyzed
        assert not results[2].ok and results[2].interrupted

    def test_first_task_interrupted_marks_all(self):
        results = run_suite([interrupting_factory, "nn"], jobs=1)
        assert all(r.interrupted for r in results)
        assert all(r.status() == "stopped" for r in results)

    def test_interrupted_rows_render(self):
        results = run_suite([interrupting_factory, "nn"], jobs=1)
        table = render_suite_table(results)
        assert "stopped" in table
        assert "0/2 workloads analyzed" in table


class _FakeFuture:
    def __init__(self, outcome):
        self._outcome = outcome

    def done(self):
        return isinstance(self._outcome, WorkloadResult)

    def cancelled(self):
        return False

    def result(self, timeout=None):
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


class _FakePool:
    """ProcessPoolExecutor stand-in whose futures replay a scripted
    interrupt: task 0 already finished, task 1 is where the SIGINT
    lands, task 2 never started."""

    instances = []

    def __init__(self, max_workers=None):
        self.shutdown_calls = []
        self._script = iter(
            [
                WorkloadResult(name="nn", ok=True),
                KeyboardInterrupt(),
                KeyboardInterrupt(),
            ]
        )
        _FakePool.instances.append(self)

    def submit(self, fn, *args, **kwargs):
        return _FakeFuture(next(self._script))

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append(
            {"wait": wait, "cancel_futures": cancel_futures}
        )


class TestPooledInterrupt:
    def test_interrupt_collects_done_and_marks_rest(self, monkeypatch):
        _FakePool.instances = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _FakePool
        )
        results = run_suite(["nn", "nw", "lud"], jobs=4)
        assert len(results) == 3
        assert results[0].ok and results[0].name == "nn"
        assert results[1].interrupted and results[1].name == "nw"
        assert results[2].interrupted and results[2].name == "lud"
        # the pool must not be waited on: cancel pending, return now
        (pool,) = _FakePool.instances
        assert pool.shutdown_calls == [
            {"wait": False, "cancel_futures": True}
        ]

    def test_no_interrupt_waits_on_shutdown(self, monkeypatch):
        class _HappyPool(_FakePool):
            def __init__(self, max_workers=None):
                super().__init__(max_workers)
                self._script = iter(
                    [
                        WorkloadResult(name="nn", ok=True),
                        WorkloadResult(name="nw", ok=True),
                    ]
                )

        _FakePool.instances = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _HappyPool
        )
        results = run_suite(["nn", "nw"], jobs=4)
        assert all(r.ok for r in results)
        (pool,) = _FakePool.instances
        assert pool.shutdown_calls == [
            {"wait": True, "cancel_futures": False}
        ]
