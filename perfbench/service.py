"""cold_service: the analysis daemon, driven over HTTP.

The daemon runs as its own process (``python3 -m repro serve
--execution process``) with 2 worker processes and an artifact store;
this process is the load: one client thread in a closed loop (submit,
poll status every 20 ms like the stock client, fetch the report, then
the next request).  The client draws a fresh seeded rotation of the 19
programs per lap and gives every request a unique ``fuel``, so every
job misses dedup, runs the full pipeline in a worker process and writes
the store: the write path through ``procpool``.  A request's latency
runs from the POST to the last report byte; every report is checked
against the committed reference-engine digest.

The load, the daemon and its workers share one CPU, and the client
runs a host-speed probe after every request, while the daemon is idle,
on the CPU the analysis ran on.

The ledger splits each request into submit, queue wait, pipeline,
execution overhead, poll lag and report fetch, from client clocks and
the daemon's job timestamps.  Traced runs also fetch each job's span
tree (``/v1/jobs/{id}/trace``) to attribute the pipeline to store,
cfg, ddg, folding and schedule.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from typing import Callable, Dict, List, Optional, Tuple

from repro.feedback.flamegraph import render_flamegraph_svg
from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.obs import Tracer, chrome_trace_document
from repro.pipeline import analyze
from repro.service.client import ServiceClient
from repro.workloads import RODINIA_ORDER, rodinia_workloads

from common import (
    FUEL,
    ROOT,
    SETUP_REPEATS,
    WORK,
    Ledger,
    Outcome,
    Samples,
    child_env,
    child_pids,
    event_seconds,
    load_oracle,
    median,
    peak_rss_mb_tree,
    report_bytes_digest,
    trace_overhead,
    write_trace,
)

perf = time.perf_counter

#: the stock ``ServiceClient.wait`` poll interval
POLL_S = 0.02

TERMINAL_FAILURES = ("failed", "timeout", "cancelled")

#: daemon span names -> pipeline layer metrics
PIPELINE_SPANS = {
    "store.load_ms": ("stage1.load", "stage1.load_base", "stage2.load"),
    "store.put_ms": ("stage1.put", "stage2.put", "incr.put"),
    "cfg.stage1_ms": ("stage1.execute", "stage1.forests", "stage1.rcs"),
    "ddg.stage2_ms": ("stage2.build_setup", "stage2.execute"),
    "folding.finalize_ms": ("fold.finalize",),
    "schedule.forest_ms": ("feedback.forest",),
    "schedule.analysis_ms": ("feedback.analysis",),
    "schedule.plan_ms": ("feedback.plan",),
}

#: /metrics counters -> per-request layer counts
SERVICE_COUNTERS = {
    "store.hits": "repro_service_store_hits",
    "store.misses": "repro_service_store_misses",
    "store.puts": "repro_service_store_puts",
}


class RequestFailed(Exception):
    """An HTTP error or a job that did not end ``done``."""


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: str) -> None:
        self.cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", "2",
            "--execution", "process",
            "--cache", cache_dir,
        ]
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> float:
        """Boot and wait until ``/healthz`` answers; returns seconds."""
        t0 = perf()
        log = open(WORK / "daemon.log", "a")
        try:
            self.proc = subprocess.Popen(
                self.cmd,
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(),
                cwd=str(ROOT),
                text=True,
            )
        finally:
            log.close()
        line = self.proc.stdout.readline()
        match = re.search(r"http://([^:\s]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.client = ServiceClient(
            match.group(1), int(match.group(2)), timeout=60.0
        )
        while self.client.health().get("_http_status") != 200:
            time.sleep(0.01)
        return perf() - t0

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill if the drain hangs.  Worker
        processes the daemon failed to reap are killed and waited for."""
        if self.proc is None:
            return
        workers = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None
        deadline = perf() + 10
        for pid in workers:
            while os.path.exists(f"/proc/{pid}") and perf() < deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.05)

    def counters(self) -> Dict[str, float]:
        out = {}
        for line in self.client.service_metrics().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def store_bytes(self) -> int:
        total = 0
        for dirpath, _, files in os.walk(self.cache_dir):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total


def boot(cache_dir: str) -> Tuple[Daemon, float]:
    """Boot the daemon ``SETUP_REPEATS`` times; keep the last one
    running and return it with the median boot time."""
    times = []
    for i in range(SETUP_REPEATS):
        daemon = Daemon(cache_dir)
        times.append(daemon.start())
        if i < SETUP_REPEATS - 1:
            daemon.stop()
    return daemon, median(times)


class Load:
    """Closed-loop clients against one daemon, one thread each."""

    def __init__(self, daemon: Daemon, oracle: Dict[str, str]) -> None:
        self.daemon = daemon
        self.oracle = oracle
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.http_errors = 0
        self.rejected = 0

    def _fail(self, status: Optional[int] = None) -> RequestFailed:
        with self.lock:
            if status is not None:
                self.http_errors += 1
                if status == 429:
                    self.rejected += 1
        return RequestFailed(f"HTTP {status}")

    def request(self, program: str, fuel: int, traced: bool) -> dict:
        """One submit -> poll -> report round trip, timed from here."""
        cl = self.daemon.client
        t0 = perf()
        status, _, raw = cl.request_raw(
            "POST", "/v1/analyze", {"workload": program, "fuel": fuel}
        )
        t_submit = perf() - t0
        if status not in (200, 202):
            raise self._fail(status)
        sub = json.loads(raw)
        job = sub["job"]
        polls = 0
        while True:
            status, _, raw = cl.request_raw("GET", f"/v1/jobs/{job}")
            polls += 1
            if status != 200:
                raise self._fail(status)
            doc = json.loads(raw)
            if doc["state"] == "done":
                seen = time.time()
                break
            if doc["state"] in TERMINAL_FAILURES:
                raise RequestFailed(f"job {job} ended {doc['state']}")
            time.sleep(POLL_S)
        t_report = perf()
        status, _, report = cl.request_raw("GET", f"/v1/jobs/{job}/report")
        t1 = perf()
        if status != 200:
            raise self._fail(status)
        if report_bytes_digest(report) != self.oracle[program]:
            raise RequestFailed(f"wrong report for {program}")
        exec_s = doc["finished_at"] - doc["started_at"]
        pipeline_s = doc["total_seconds"]
        rec = {
            "total": t1 - t0,
            "parts": {
                "service.submit_ms": t_submit,
                "service.queue_wait_ms": doc["started_at"] - doc["created_at"],
                "service.pipeline_ms": pipeline_s,
                "service.exec_overhead_ms": exec_s - pipeline_s,
                "service.poll_lag_ms": max(seen - doc["finished_at"], 0.0),
                "service.report_ms": t1 - t_report,
            },
            "nested": {"service.exec_ms": exec_s},
            "counts": {
                "service.polls_per_req": polls,
                "service.dedup_hits": int(bool(sub.get("deduplicated"))),
                "service.warm_hits": int(doc["cache"]["hit"]),
            },
        }
        if traced:
            status, _, raw = cl.request_raw("GET", f"/v1/jobs/{job}/trace")
            if status != 200:
                raise self._fail(status)
            events = json.loads(raw)["traceEvents"]
            for metric, names in PIPELINE_SPANS.items():
                rec["nested"][metric] = event_seconds(events, names)
        return rec

    def run(
        self,
        plans: List[Callable[[], Tuple[str, int]]],
        seconds: float = 0.0,
        traced: bool = False,
        tracer: Optional[Tracer] = None,
        requests: Optional[int] = None,
    ) -> Tuple[Samples, List[dict]]:
        """Drive one closed loop per plan for ``seconds`` (or for
        ``requests`` requests per client).  A plan yields (program,
        fuel) for the client's next request.  A pass is one client's
        walk through the 19 programs."""
        samples = Samples()
        records: List[dict] = []
        deadline = perf() + seconds
        tracer = tracer or Tracer(enabled=False)

        def more(sent: int) -> bool:
            return sent < requests if requests else perf() < deadline

        def client(plan) -> None:
            sent = 0
            while more(sent):
                sent += 1
                program, fuel = plan()
                with self.lock:
                    self.attempted += 1
                try:
                    with tracer.span("request", cat="bench", program=program):
                        rec = self.request(program, fuel, traced)
                except (
                    RequestFailed, HTTPException, OSError, ValueError, KeyError,
                ):
                    with self.lock:
                        self.failed += 1
                    continue
                with self.lock:
                    records.append(rec)
                    samples.add(program, rec["total"])
                    samples.probe()

        threads = [
            threading.Thread(target=client, args=(plan,), name=f"client-{i}")
            for i, plan in enumerate(plans)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 150)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a client did not finish")
        return samples, records


def fresh_rotations(rng: random.Random, fuels):
    """cold_service plan: a new seeded rotation per lap, and a fuel
    value no other request uses."""
    order: List[str] = []

    def plan():
        if not order:
            order.extend(rng.sample(RODINIA_ORDER, len(RODINIA_ORDER)))
        return order.pop(0), next(fuels)

    return plan


def feedback_side() -> Dict[str, float]:
    """Time, in this process, the renders the executor performs for
    every job: the report document, and the metrics / flame-graph /
    trace artifacts."""
    report, artifacts = [], []
    for name, factory in rodinia_workloads().items():
        tracer = Tracer()
        result = analyze(factory(), tracer=tracer)
        t0 = perf()
        render_json(report_document(result))
        t1 = perf()
        render_json(metrics_document(result))
        render_flamegraph_svg(result.schedule_tree, title=name)
        json.dumps(chrome_trace_document(tracer.roots, workload=name), indent=2)
        t2 = perf()
        report.append(t1 - t0)
        artifacts.append(t2 - t1)
    return {
        "feedback.report_ms": median(report) * 1e3,
        "feedback.artifacts_ms": median(artifacts) * 1e3,
    }


def _traced_half(
    load: Load, daemon: Daemon, plans, seconds: float, plain: Samples,
    name: str, seed: int,
) -> Tuple[Dict[str, float], List[str]]:
    """Second half of a traced run: per-layer ledger and overhead."""
    c0, b0 = daemon.counters(), daemon.store_bytes()
    tracer = Tracer()
    with tracer.span(f"{name}.traced", cat="bench"):
        traced, records = load.run(plans, seconds, True, tracer)
    c1, b1 = daemon.counters(), daemon.store_bytes()
    ledger = Ledger("request")
    for rec in records:
        ledger.add(rec["total"], rec["parts"], rec["counts"], rec["nested"])
    n = max(len(records), 1)
    metrics = ledger.metrics(traced.speed())
    for metric, counter in SERVICE_COUNTERS.items():
        metrics[metric] = (c1.get(counter, 0) - c0.get(counter, 0)) / n
    metrics["store.bytes_written"] = (b1 - b0) / n
    attempted = max(load.attempted, 1)
    metrics["service.rejected"] = load.rejected / attempted
    metrics["service.http_errors"] = load.http_errors / attempted
    metrics.update(plain.per_program())
    metrics["obs.trace_overhead"] = trace_overhead(plain, traced, Samples.p50)
    path = write_trace(tracer, name, seed)
    lines = [
        f"{name} traced: untraced {plain.summary()}; traced "
        f"{traced.summary()}",
        ledger.table(),
        f"span forest written to {path}",
    ]
    return metrics, lines


def run_cold_service(seed: int, seconds: float, trace: bool) -> Outcome:
    # one CPU for the load, the daemon and its workers, so the probe
    # runs on the CPU the analysis runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fuels = itertools.count(FUEL + 1000)
    plans = [fresh_rotations(random.Random(seed), fuels)]
    daemon, boot_s = boot(str(WORK / "cold_service-store"))
    try:
        load = Load(daemon, load_oracle())
        # two small jobs at once, so both worker processes have run the
        # pipeline once before the clock starts
        t0 = perf()
        load.run([lambda: ("nn", next(fuels))] * 2, requests=1)
        if load.failed:
            raise RuntimeError("worker warm-up failed")
        setup_s = boot_s + (perf() - t0)
        # set-up requests are not part of the measurement
        load.attempted = load.failed = load.http_errors = load.rejected = 0
        window = seconds / 2 if trace else seconds
        plain, _ = load.run(plans, window)
        if trace:
            metrics, lines = _traced_half(
                load, daemon, plans, window, plain, "cold_service", seed
            )
        else:
            metrics = plain.end_to_end(setup_s, peak_rss_mb_tree(daemon.proc.pid))
            lines = [f"cold_service: {plain.summary()}"]
    finally:
        daemon.stop()
    if trace:
        metrics.update(feedback_side())
    return Outcome(metrics, load.attempted, load.failed, lines)
