"""Consistent-hash routing over replica daemons.

Ring unit tests plus live two-replica topologies: routing by content
key, dedup and byte identity through the router, health-checked
failover when a replica dies mid-suite.
"""

import time

import pytest

from repro.service import ServiceError, parse_samples
from repro.service.router import HashRing

from .conftest import counting_loop_docs

SLOW_ITERS = 2_000_000
BRIEF_ITERS = 60_000


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(["a:1", "b:2", "c:3"], vnodes=32)
        keys = [f"key-{i}" for i in range(200)]
        first = [ring.node_for(k) for k in keys]
        again = [ring.node_for(k) for k in keys]
        assert first == again
        assert set(first) == {"a:1", "b:2", "c:3"}  # no starved node

    def test_preference_list_covers_all_nodes_once(self):
        ring = HashRing(["a:1", "b:2", "c:3"], vnodes=16)
        pref = ring.preference("some-key")
        assert sorted(pref) == ["a:1", "b:2", "c:3"]
        assert len(set(pref)) == 3

    def test_exclusion_falls_over_to_successor(self):
        ring = HashRing(["a:1", "b:2"], vnodes=16)
        key = "k"
        home = ring.node_for(key)
        other = ring.node_for(key, exclude={home})
        assert other != home
        assert ring.node_for(key, exclude={"a:1", "b:2"}) is None

    def test_losing_a_node_moves_only_its_keys(self):
        """The consistent-hashing contract: removing one of three
        nodes re-homes only the keys that lived on it."""
        full = HashRing(["a:1", "b:2", "c:3"], vnodes=64)
        reduced = HashRing(["a:1", "b:2"], vnodes=64)
        moved = 0
        for i in range(500):
            key = f"key-{i}"
            before, after = full.node_for(key), reduced.node_for(key)
            if before == "c:3":
                assert after in ("a:1", "b:2")
            else:
                assert after == before, "a surviving node's key moved"
                moved += 0
        assert reduced.node_for("key-0") is not None

    def test_duplicate_nodes_are_collapsed(self):
        ring = HashRing(["a:1", "a:1", "b:2"], vnodes=8)
        assert ring.nodes == ["a:1", "b:2"]


def _boot_replicas(make_service, tmp_path, n=2, **overrides):
    overrides.setdefault("cache_dir", str(tmp_path / "store"))
    return [
        make_service(replica_id=f"r{i}", **overrides) for i in range(n)
    ]


class TestRoutedTopology:
    def test_healthz_reports_ring_and_replica_states(
        self, make_service, make_router, tmp_path
    ):
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        doc = router.client.health(raise_for_status=True)
        assert doc["role"] == "router"
        assert doc["status"] == "ok"
        assert len(doc["ring"]["members"]) == 2
        assert [r["state"] for r in doc["replicas"]] == [
            "healthy",
            "healthy",
        ]
        assert {r["info"]["replica"] for r in doc["replicas"]} == {
            "r0",
            "r1",
        }
        text = router.client.service_metrics()
        samples = parse_samples(text)
        assert samples["repro_router_replicas"] == 2
        assert samples["repro_router_replicas_up"] == 2
        assert text.count("repro_router_replica_up{") == 2

    def test_bad_submission_is_rejected_at_the_edge(
        self, make_service, make_router, tmp_path
    ):
        router = make_router(_boot_replicas(make_service, tmp_path))
        with pytest.raises(ServiceError) as err:
            router.client.submit(workload="no_such_workload")
        assert err.value.status == 400
        # mistyped options and parallel folding are refused at the edge
        # by the same parser the replicas run
        for body in ({"fuel": "abc"}, {"fold_jobs": 2}):
            status, _, raw = router.client.request_raw(
                "POST", "/v1/analyze", {"workload": "nn", **body}
            )
            assert status == 400, (body, raw)
        samples = parse_samples(router.client.service_metrics())
        assert samples["repro_router_forwards_total"] == 0

    def test_unknown_job_is_404_through_router(
        self, make_service, make_router, tmp_path
    ):
        router = make_router(_boot_replicas(make_service, tmp_path))
        with pytest.raises(ServiceError) as err:
            router.client.job("j999999-deadbeef")
        assert err.value.status == 404


class TestRoutedExecution:
    def test_reports_byte_identical_to_single_daemon(
        self, make_service, make_router, tmp_path
    ):
        """Every artifact fetched through the router is byte-for-byte
        what a standalone daemon produces for the same submission."""
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        single = make_service(cache_dir=str(tmp_path / "single"))
        for i in range(3):
            program, state = counting_loop_docs(
                BRIEF_ITERS + i, name=f"routed_{i}"
            )
            _, via_router = router.client.analyze(
                program=program, state=state, wait_timeout=60
            )
            _, via_single = single.client.analyze(
                program=program, state=state, wait_timeout=60
            )
            assert via_router == via_single

    def test_identical_submissions_route_to_one_replica_and_dedup(
        self, make_service, make_router, tmp_path
    ):
        """Content-keyed routing preserves exactly-once: the second
        identical submission lands on the same replica and coalesces
        onto the same job id."""
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        program, state = counting_loop_docs(SLOW_ITERS, name="dedup")
        first = router.client.submit(program=program, state=state)
        second = router.client.submit(program=program, state=state)
        assert second["deduplicated"] is True
        assert second["job"] == first["job"]
        total_jobs = sum(
            len(live.service.registry.jobs()) for live in replicas
        )
        assert total_jobs == 1
        router.client.cancel(first["job"])

    def test_jobs_spread_across_replicas(
        self, make_service, make_router, tmp_path
    ):
        """Distinct submissions land on both ring members (with enough
        keys, consistent hashing uses the whole ring)."""
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        for i in range(8):
            program, state = counting_loop_docs(
                BRIEF_ITERS + 100 + i, name=f"spread_{i}"
            )
            sub = router.client.submit(program=program, state=state)
            router.client.wait(sub["job"], timeout=60)
        per_replica = [
            len(live.service.registry.jobs()) for live in replicas
        ]
        assert sum(per_replica) == 8
        assert all(count > 0 for count in per_replica)

    def test_cancel_proxies_to_the_owning_replica(
        self, make_service, make_router, tmp_path
    ):
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        program, state = counting_loop_docs(SLOW_ITERS, name="rcancel")
        sub = router.client.submit(program=program, state=state)
        doc = router.client.cancel(sub["job"])
        assert doc["state"] in ("cancelled", "running")
        deadline = time.monotonic() + 30
        while router.client.job(sub["job"])["state"] not in (
            "cancelled",
            "done",
        ):
            assert time.monotonic() < deadline
            time.sleep(0.02)


class TestFailover:
    def test_killing_one_replica_loses_no_jobs(
        self, make_service, make_router, tmp_path
    ):
        """The acceptance criterion: with one ring member dead,
        resilient clients finish every submission (re-routed to the
        survivor), and the router reports the death."""
        replicas = _boot_replicas(make_service, tmp_path)
        router = make_router(replicas)
        programs = [
            counting_loop_docs(BRIEF_ITERS + 200 + i, name=f"kill_{i}")
            for i in range(6)
        ]
        # warm half the keys through the full ring first
        for program, state in programs[:3]:
            router.client.analyze_resilient(
                program=program, state=state, wait_timeout=60
            )
        victim = replicas[0]
        victim.service.shutdown(grace=0.2)
        deadline = time.monotonic() + 15
        while True:  # wait until the health loop notices
            states = router.service.replica_states()
            if "down" in states.values():
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        reports = []
        for program, state in programs:
            status, report = router.client.analyze_resilient(
                program=program, state=state, wait_timeout=60
            )
            assert status["state"] == "done"
            reports.append(report)
        assert len(reports) == 6
        survivor = replicas[1].service
        assert all(
            job.state in ("done", "cancelled")
            for job in survivor.registry.jobs()
        ), "no failed jobs on the survivor"
        doc = router.client.health(raise_for_status=True)
        assert {r["state"] for r in doc["replicas"]} == {
            "down",
            "healthy",
        }

    def test_submission_fails_over_before_health_loop_notices(
        self, make_service, make_router, tmp_path
    ):
        """A forward that hits a dead socket falls over to the ring
        successor inside the same request -- no waiting on the probe
        interval."""
        from repro.service.submission import routing_key

        replicas = _boot_replicas(make_service, tmp_path)
        # a slow health loop so only mid-request failover can save us
        router = make_router(replicas, health_interval=30.0)
        docs = [
            counting_loop_docs(BRIEF_ITERS + 300 + i, name=f"fo_{i}")
            for i in range(4)
        ]
        # kill the first submission's home replica: ring positions come
        # from the replicas' ephemeral ports, so a fixed victim would
        # sometimes own none of the four keys and see no failover
        program, state = docs[0]
        home = router.service.ring.node_for(
            routing_key({"program": program, "state": state})
        )
        (victim,) = [
            r for r in replicas
            if f"{r.service.host}:{r.service.port}" == home
        ]
        victim.service.shutdown(grace=0.2)
        for program, state in docs:
            status, _ = router.client.analyze_resilient(
                program=program, state=state, wait_timeout=60
            )
            assert status["state"] == "done"
        samples = parse_samples(router.client.service_metrics())
        assert samples["repro_router_failovers_total"] >= 1
