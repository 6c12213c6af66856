"""Shared fixtures for the analysis-service tests.

Everything runs against a *live* daemon on an ephemeral loopback port:
these are end-to-end tests of the HTTP surface, not of the Python
objects behind it.
"""

import contextlib

import pytest

from repro.isa import Memory, ProgramBuilder
from repro.isa.progjson import encode_program, encode_state
from repro.service import AnalysisService, ServiceClient, ServiceConfig


def counting_loop_docs(iters, cells=1, name="inline_loop"):
    """(program_doc, state_doc) for an inline workload that executes
    ~``iters`` loop iterations -- the knob the limit tests use to make
    jobs exactly as slow as they need.  Distinct ``iters`` values have
    distinct content fingerprints, so they never dedup onto each other.
    """
    pb = ProgramBuilder(name)
    with pb.function("main", ["a", "n"]) as f:
        with f.loop(0, "n") as i:
            v = f.load("a", index=0)
            f.store("a", f.add(v, 1), index=0)
            f.store("a", i, index=0)
        f.halt()
    program = pb.build()
    memory = Memory()
    base = memory.alloc(cells, 0)
    return encode_program(program), encode_state([base, iters], memory)


class LiveService:
    """A started daemon plus a client, torn down uncleanly-safe."""

    def __init__(self, service, client):
        self.service = service
        self.client = client


@pytest.fixture
def make_service():
    """Factory fixture: ``make_service(workers=1, ...)`` boots a daemon
    on port 0 and returns a :class:`LiveService`; everything started is
    drained on teardown (cancelling any still-running jobs)."""
    started = []

    def _make(**overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
        overrides.setdefault("log_level", "error")
        service = AnalysisService(ServiceConfig(**overrides))
        host, port = service.start()
        started.append(service)
        return LiveService(service, ServiceClient(host, port))

    yield _make

    for service in started:
        # cancel whatever is still in flight so teardown is quick
        for job in service.registry.jobs():
            job.cancel_event.set()
        with contextlib.suppress(Exception):
            service.shutdown(grace=0.2)

