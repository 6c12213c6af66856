"""Analysis-service benchmark: concurrency, dedup, warm restarts, and
process-pool scale-out.

Boots real daemons on ephemeral loopback ports and drives them with
the stdlib client, gating the service PRs' headline claims:

* **concurrency** -- at least 8 simultaneous submissions of distinct
  workloads complete with zero errors;
* **dedup** -- N identical concurrent submissions coalesce onto one
  job and execute the pipeline exactly once;
* **warm restart** -- a fresh daemon pointed at the cache directory a
  previous daemon populated serves the same requests at least **10x**
  faster end-to-end (HTTP round trips, queueing, polling, and artifact
  decode all included in the warm time);
* **scale-out** -- 64 concurrent clients submitting unique cold jobs
  over the Rodinia set: ``--execution process`` must beat
  ``--execution thread`` by **2.5x** throughput on hosts with >= 4
  cores (``REPRO_SERVICE_GATE`` overrides; on smaller hosts the gate
  is recorded as skipped and the measured ratio still written -- two
  worker processes on two cores measured 1.4-1.9x), with zero errors
  and exactly-once execution per unique submission.

Writes ``BENCH_service.json``.
"""

import json
import os
import shutil
import tempfile
import threading
import time

from _harness import emit, format_table, once, results_path
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    parse_samples,
)
from repro.workloads import rodinia_workloads

#: how many simultaneous clients the concurrency/dedup phases use
CONCURRENCY = 8

#: how many simultaneous clients the scale phase uses
SCALE_CLIENTS = 64

#: warm repetitions (best-of; noise is additive)
WARM_ROUNDS = 3

#: required cold/warm end-to-end speedup through the service
GATE_WARM = 10.0

CPUS = os.cpu_count() or 1


def _scale_gate():
    """(threshold, enforced, why) for process-vs-thread throughput --
    enforced only where there are cores for the processes to use."""
    env = os.environ.get("REPRO_SERVICE_GATE")
    if env:
        return float(env), True, f"REPRO_SERVICE_GATE={env}"
    if CPUS >= 4:
        return 2.5, True, f"{CPUS} cores"
    return 2.5, False, (
        f"only {CPUS} core(s), fewer than the 4 the gate assumes; "
        "gate skipped, numbers recorded"
    )


def _boot(cache_dir, workers=4, execution="thread", queue_depth=64):
    service = AnalysisService(
        ServiceConfig(
            port=0,
            workers=workers,
            queue_depth=queue_depth,
            cache_dir=cache_dir,
            execution=execution,
            log_level="error",
        )
    )
    host, port = service.start()
    return service, ServiceClient(host, port)


def _fan_out(client, names):
    """Submit every workload from its own thread, wait for all, and
    return (seconds, per-name round-trip seconds, errors)."""
    barrier = threading.Barrier(len(names))
    laps = {}
    errors = []

    def _one(name):
        try:
            barrier.wait()
            t0 = time.perf_counter()
            status, report = None, None
            sub = client.submit(workload=name)
            status = client.wait(sub["job"], timeout=600, poll=0.005)
            report = client.report(sub["job"])
            laps[name] = time.perf_counter() - t0
            if status["state"] != "done" or not report:
                raise RuntimeError(f"{name}: bad outcome {status}")
        except Exception as exc:  # noqa: BLE001 - gate on the list
            errors.append(f"{name}: {exc!r}")

    threads = [
        threading.Thread(target=_one, args=(n,)) for n in names
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, laps, errors


def _scale_submissions(names):
    """64 unique (workload, fuel) submissions cycling the Rodinia set.
    Fuel offsets make the content keys distinct without changing the
    work, so every client's job is a real cold execution and dedup
    rightly coalesces nothing."""
    subs = []
    for i in range(SCALE_CLIENTS):
        subs.append(
            {
                "workload": names[i % len(names)],
                "fuel": 50_000_000 + i // len(names),
            }
        )
    return subs


def _scale_phase(execution, names):
    """64 concurrent clients against one daemon; returns the phase
    record (wall seconds, throughput, metrics, errors)."""
    workers = max(2, min(CPUS, 8))
    service, client = _boot(
        None,
        workers=workers,
        execution=execution,
        queue_depth=SCALE_CLIENTS + 8,
    )
    bodies = _scale_submissions(names)
    barrier = threading.Barrier(len(bodies))
    errors = []

    def _one(body):
        try:
            barrier.wait()
            sub = client.submit(**body)
            status = client.wait(sub["job"], timeout=1200, poll=0.01)
            if status["state"] != "done":
                raise RuntimeError(f"bad outcome {status}")
            if not client.report(sub["job"]):
                raise RuntimeError("empty report")
        except Exception as exc:  # noqa: BLE001 - gate on the list
            errors.append(f"{body['workload']}: {exc!r}")

    threads = [
        threading.Thread(target=_one, args=(b,)) for b in bodies
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    samples = parse_samples(client.service_metrics())
    clean = service.shutdown(grace=60)
    return {
        "execution": execution,
        "workers": workers,
        "clients": len(bodies),
        "unique_submissions": len(
            {(b["workload"], b["fuel"]) for b in bodies}
        ),
        "wall_seconds": wall,
        "throughput_jobs_per_s": len(bodies) / wall,
        "executed": samples["repro_service_jobs_executed_total"],
        "deduped": samples["repro_service_jobs_deduped_total"],
        "failed": samples["repro_service_jobs_failed_total"],
        "restarts": samples["repro_service_worker_restarts_total"],
        "errors": errors,
        "clean_shutdown": clean,
    }


def run_service():
    names = list(rodinia_workloads())[:CONCURRENCY]
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        # -- cold phase: concurrent distinct submissions ------------------
        service, client = _boot(cache_dir)
        t_cold, cold_laps, cold_errors = _fan_out(client, names)
        cold_samples = parse_samples(client.service_metrics())
        clean_first = service.shutdown(grace=60)

        # -- warm phase: a *fresh* daemon over the populated cache --------
        warm_times = []
        warm_laps = {}
        warm_errors = []
        warm_samples = {}
        clean_restarts = []
        for _ in range(WARM_ROUNDS):
            service, client = _boot(cache_dir)
            t, laps, errs = _fan_out(client, names)
            if t == min([t] + warm_times):
                warm_laps = laps
            warm_times.append(t)
            warm_errors.extend(errs)
            warm_samples = parse_samples(client.service_metrics())
            clean_restarts.append(service.shutdown(grace=60))
        t_warm = min(warm_times)

        # -- dedup phase: identical concurrent submissions, no cache ------
        service, client = _boot(None, workers=4)
        barrier = threading.Barrier(CONCURRENCY)
        subs = [None] * CONCURRENCY
        dedup_errors = []

        def _same(i):
            try:
                barrier.wait()
                subs[i] = client.submit(workload="nn")
            except Exception as exc:  # noqa: BLE001
                dedup_errors.append(repr(exc))

        threads = [
            threading.Thread(target=_same, args=(i,))
            for i in range(CONCURRENCY)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        job_ids = {s["job"] for s in subs if s}
        for job_id in job_ids:
            client.wait(job_id, timeout=600)
        dedup_samples = parse_samples(client.service_metrics())
        service.shutdown(grace=60)

        # -- scale phase: 64 clients, thread pool vs process pool ---------
        scale = {
            mode: _scale_phase(mode, names)
            for mode in ("thread", "process")
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "names": names,
        "t_cold": t_cold,
        "t_warm": t_warm,
        "warm_times": warm_times,
        "cold_laps": cold_laps,
        "warm_laps": warm_laps,
        "cold_errors": cold_errors,
        "warm_errors": warm_errors,
        "cold_samples": cold_samples,
        "warm_samples": warm_samples,
        "dedup_errors": dedup_errors,
        "dedup_job_ids": sorted(job_ids),
        "dedup_subs": [s for s in subs if s],
        "dedup_samples": dedup_samples,
        "clean_shutdowns": [clean_first] + clean_restarts,
        "scale": scale,
    }


def test_service(benchmark):
    r = once(benchmark, run_service)
    speedup = r["t_cold"] / r["t_warm"] if r["t_warm"] else float("inf")
    gate, enforced, why = _scale_gate()
    thread_phase = r["scale"]["thread"]
    process_phase = r["scale"]["process"]
    scale_speedup = (
        process_phase["throughput_jobs_per_s"]
        / thread_phase["throughput_jobs_per_s"]
    )

    # gate: >= 8 concurrent submissions, zero errors, every shutdown clean
    assert len(r["names"]) >= CONCURRENCY
    assert not r["cold_errors"], r["cold_errors"]
    assert not r["warm_errors"], r["warm_errors"]
    assert all(r["clean_shutdowns"]), r["clean_shutdowns"]
    assert r["cold_samples"]["repro_service_jobs_failed_total"] == 0
    assert r["warm_samples"]["repro_service_jobs_failed_total"] == 0

    # gate: the warm daemon really served from the store
    assert (
        r["warm_samples"]["repro_service_jobs_warm_hits_total"]
        == len(r["names"])
    ), r["warm_samples"]

    # gate: identical concurrent submissions ran the pipeline once
    assert not r["dedup_errors"], r["dedup_errors"]
    assert len(r["dedup_subs"]) == CONCURRENCY
    assert len(r["dedup_job_ids"]) == 1, r["dedup_job_ids"]
    assert (
        sum(s["deduplicated"] for s in r["dedup_subs"])
        == CONCURRENCY - 1
    )
    assert (
        r["dedup_samples"]["repro_service_jobs_executed_total"] == 1
    ), r["dedup_samples"]

    # gate: 64-client scale phases -- zero errors, exactly-once per
    # unique submission, no worker crashes, clean drains
    for phase in (thread_phase, process_phase):
        assert phase["clients"] == SCALE_CLIENTS
        assert not phase["errors"], phase["errors"][:5]
        assert phase["failed"] == 0, phase
        assert phase["restarts"] == 0, phase
        assert phase["deduped"] == 0, phase
        assert phase["executed"] == phase["unique_submissions"], phase
        assert phase["clean_shutdown"], phase

    rows = []
    for name in r["names"]:
        c, w = r["cold_laps"][name], r["warm_laps"][name]
        rows.append([
            name,
            f"{1000 * c:.0f}ms",
            f"{1000 * w:.0f}ms",
            f"{c / w:.1f}x" if w else "-",
        ])
    rows.append([
        "TOTAL (wall)",
        f"{1000 * r['t_cold']:.0f}ms",
        f"{1000 * r['t_warm']:.0f}ms",
        f"{speedup:.1f}x",
    ])
    table = format_table(
        ["workload", "cold", "warm", "speedup"],
        rows,
        title=(
            f"repro.service: {CONCURRENCY} concurrent clients, "
            f"cold vs warm-restart daemon (best of {WARM_ROUNDS})"
        ),
    )
    scale_rows = [
        [
            phase["execution"],
            str(phase["workers"]),
            str(phase["clients"]),
            f"{phase['wall_seconds']:.2f}s",
            f"{phase['throughput_jobs_per_s']:.2f}/s",
        ]
        for phase in (thread_phase, process_phase)
    ]
    scale_rows.append(
        ["process/thread", "-", "-", "-", f"{scale_speedup:.2f}x"]
    )
    table += "\n\n" + format_table(
        ["execution", "workers", "clients", "wall", "throughput"],
        scale_rows,
        title=(
            f"repro.service scale-out ({CPUS} cores, gate "
            f"{gate:.1f}x {'enforced' if enforced else 'skipped'}: {why})"
        ),
    )
    emit("service.txt", table)

    with open(results_path("BENCH_service.json"), "w") as fh:
        json.dump(
            {
                "concurrency": CONCURRENCY,
                "warm_rounds": WARM_ROUNDS,
                "gate_warm": GATE_WARM,
                "t_cold": r["t_cold"],
                "t_warm": r["t_warm"],
                "warm_times": r["warm_times"],
                "speedup": speedup,
                "cold_laps": r["cold_laps"],
                "warm_laps": r["warm_laps"],
                "dedup_executed": r["dedup_samples"][
                    "repro_service_jobs_executed_total"
                ],
                "dedup_submissions": len(r["dedup_subs"]),
                "cpus": CPUS,
                "scale_clients": SCALE_CLIENTS,
                "scale_gate": gate,
                "scale_gate_enforced": enforced,
                "scale_gate_note": why,
                "scale_speedup": scale_speedup,
                "scale_thread": thread_phase,
                "scale_process": process_phase,
            },
            fh,
            indent=2,
            sort_keys=True,
        )

    assert speedup >= GATE_WARM, (
        f"warm daemon only {speedup:.1f}x faster than cold "
        f"(gate: {GATE_WARM:.0f}x)"
    )
    # the scale-out claim only where the hardware can express it
    if enforced:
        assert scale_speedup >= gate, (
            f"process pool only {scale_speedup:.2f}x thread-pool "
            f"throughput at {SCALE_CLIENTS} clients "
            f"(gate {gate:.1f}x, {why})"
        )
