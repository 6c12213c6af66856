"""Shared plumbing of the layer-ledger benchmark.

Every workload produces two things: end-to-end samples (request
latencies, host-speed probes, set-up time, peak memory) and, on a
traced run, a
*ledger* -- one record per request (a program analysis, an edit
re-analysis, or an HTTP job) holding the seconds each layer spent on
that request's blocking path plus per-request counts.  This module
turns both into the metric dictionaries ``run.py`` prints, renders the
per-layer table with its explicit unattributed remainder, checks report
bytes against the committed oracle, and writes the benchmark's own span
forest as a Chrome trace.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of one run (stores, daemon logs, trace exports)
WORK = ROOT / ".perfbench"
ORACLE = HERE / "oracle.json"

#: the pipeline's default fuel; service clients offset it to make
#: otherwise identical submissions distinct dedup/store keys
FUEL = 50_000_000

#: repeatable set-up steps run this many times; set-up time reports
#: their median
SETUP_REPEATS = 3

#: what a fresh interpreter imports before it can analyze anything
IMPORT_PROBE = (
    "import repro.pipeline, repro.feedback.jsonout, repro.workloads, "
    "repro.store, repro.incr, repro.service.client"
)

#: reported times are scaled to a host on which one host-speed probe
#: takes this long (FINDINGS.md, "The host's CPU speed moves")
PROBE_REF_S = 0.006

_RNG = random.Random(0)
_PROBE_DATA = [
    {"a": _RNG.randrange(1000), "b": (_RNG.random(), str(_RNG.randrange(99)))}
    for _ in range(2000)
]


def _probe_task() -> int:
    """A fixed slice of interpreter work of the analyzer's kind: small
    dicts, tuples and lists built and grouped, a keyed sort, a JSON
    encode.  It calls nothing under ``src/``."""
    groups: Dict[tuple, list] = {}
    for row in _PROBE_DATA:
        groups.setdefault((row["a"] % 97, row["b"][1]), []).append(row["b"][0])
    ranked = sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return len(json.dumps([[list(k), v[:3]] for k, v in ranked]))


def probe_seconds() -> float:
    """Seconds one host-speed probe takes, with the cyclic GC off so
    the analyzer's heap does not leak into the reading.  The task runs
    twice and the second run is timed: after a wait on the daemon the
    CPU's caches are cold, and the first run pays for that."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_task()
        t0 = time.perf_counter()
        _probe_task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def source_present() -> bool:
    return (SRC / "repro" / "pipeline.py").is_file()


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources on the path, no inherited artifact store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def time_fresh_import() -> float:
    """Seconds a fresh interpreter takes to import the analyzer."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(),
        cwd=str(ROOT),
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


def median_import_seconds() -> float:
    return median([time_fresh_import() for _ in range(SETUP_REPEATS)])


# -- statistics -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def _beta_cdf(x: float, a: float, b: float, steps: int = 2000) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b >= 1 (Simpson)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = x / steps
    total = density(0.0) + density(x)
    for i in range(1, steps):
        total += (4 if i % 2 else 2) * density(i * h)
    return total * h / 3


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of every order
    statistic.  Over a few values -- one per program -- it moves
    smoothly, where the plain quantile follows one or two programs."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))


def geomean(values: Iterable[float]) -> float:
    xs = [v for v in values if v > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int) -> List[int]:
    """Pids whose parent is ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            out.append(int(entry))
    return out


def peak_rss_mb_tree(pid: int) -> float:
    """Summed ``VmHWM`` of ``pid`` and its direct children, in MB."""
    total_kb = 0
    for p in [pid, *child_pids(pid)]:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def metric_name(program: str) -> str:
    """``prog.<name>_ms`` stem: metric names allow no ``+``."""
    return program.replace("+", "")


# -- correctness oracle ---------------------------------------------------------


def report_digest(doc: dict) -> str:
    """Digest of a report document with its ``engine`` field set
    aside (the reference and fast engines must agree on the rest)."""
    doc = {k: v for k, v in doc.items() if k != "engine"}
    canon = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def report_bytes_digest(raw: bytes) -> str:
    return report_digest(json.loads(raw.decode("utf-8")))


def load_oracle() -> Dict[str, str]:
    with open(ORACLE) as fh:
        return json.load(fh)["digests"]


# -- results --------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    lines: List[str] = field(default_factory=list)


@dataclass
class Samples:
    """End-to-end samples of one measurement window.

    The caller runs a host-speed probe after every request, off the
    request's clock.  The host's CPU speed drifts by tens of percent
    over minutes, and the probe drifts with the analyzer, so every time
    is reported scaled by ``PROBE_REF_S / mean probe`` (``speed``): the
    time the request would take on a host where the probe takes
    ``PROBE_REF_S``.  The mean, not the median: a request is 20 to 60
    probes long and absorbs every slow stretch of the host in
    proportion, as the mean of the probes does.  ``summary`` shows the
    raw figures too."""

    latencies: List[float] = field(default_factory=list)
    by_item: Dict[str, List[float]] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)
    #: requests one pass makes; 0 means one per item
    per_pass: int = 0

    def add(self, item: str, seconds: float) -> None:
        self.latencies.append(seconds)
        self.by_item.setdefault(item, []).append(seconds)

    def probe(self) -> None:
        self.probes.append(probe_seconds())

    def speed(self) -> float:
        if not self.probes:
            return 1.0
        return PROBE_REF_S * len(self.probes) / sum(self.probes)

    def item_medians(self) -> List[float]:
        return [median(xs) for xs in self.by_item.values()]

    def p50(self) -> float:
        return hd_quantile(self.item_medians(), 0.5)

    def per_pass_count(self) -> int:
        return self.per_pass or len(self.by_item)

    def raw_pass_s(self) -> float:
        """Sum of the per-item median latencies, per pass: what a pass
        takes in a closed loop, from every sample of the window."""
        meds = self.item_medians()
        return sum(meds) * self.per_pass_count() / max(len(meds), 1)

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
        """Request percentiles are Harrell-Davis quantiles of the
        per-item medians: a pass sends every item alike, and a
        percentile of the pooled samples falls in the gap between two
        programs' latencies, where a few samples move it far."""
        k = self.speed()
        meds = self.item_medians()
        pass_s = self.raw_pass_s() * k
        return {
            "setup_s": setup_s * k,
            "pass_s": pass_s,
            "analyze_geomean_ms": geomean(m * 1e3 * k for m in meds),
            "req_p50_ms": hd_quantile(meds, 0.5) * 1e3 * k,
            "req_p90_ms": hd_quantile(meds, 0.9) * 1e3 * k,
            # one client in a closed loop
            "req_per_s": self.per_pass_count() / pass_s,
            "peak_rss_mb": peak_rss_mb,
        }

    def per_program(self) -> Dict[str, float]:
        k = self.speed()
        return {
            f"prog.{metric_name(item)}_ms": median(xs) * 1e3 * k
            for item, xs in self.by_item.items()
        }

    def summary(self) -> str:
        return (
            f"{len(self.latencies)} requests, raw pass "
            f"{self.raw_pass_s():.3f}s, probe median "
            f"{median(self.probes) * 1e3:.3f} ms, mean "
            f"{sum(self.probes) / max(len(self.probes), 1) * 1e3:.3f} ms "
            f"over {len(self.probes)}, "
            f"speed scale {self.speed():.3f}"
        )


def trace_overhead(plain: Samples, traced: Samples, stat=Samples.raw_pass_s) -> float:
    """``obs.trace_overhead``: traced / untraced ``stat``, each window
    scaled by its own host speed."""
    return (stat(traced) * traced.speed()) / (stat(plain) * plain.speed())


# -- the ledger -----------------------------------------------------------------


class Ledger:
    """Per-request layer records of a traced run.

    ``add(total, parts, counts, nested)``: ``parts`` are seconds on the
    request's blocking path (they should sum to ``total``; what they
    miss is the unattributed remainder), ``nested`` are seconds inside
    one of the parts (shown indented, never summed), ``counts`` are
    per-request tallies."""

    def __init__(self, unit_of_work: str) -> None:
        self.unit_of_work = unit_of_work
        self.records: List[dict] = []

    def add(
        self,
        total: float,
        parts: Dict[str, float],
        counts: Optional[Dict[str, float]] = None,
        nested: Optional[Dict[str, float]] = None,
    ) -> None:
        self.records.append(
            {
                "total": total,
                "parts": dict(parts),
                "nested": dict(nested or {}),
                "counts": dict(counts or {}),
            }
        )

    def _series(self, kind: str, name: str) -> List[float]:
        return [r[kind][name] for r in self.records if name in r[kind]]

    def names(self, kind: str) -> List[str]:
        seen: Dict[str, None] = {}
        for r in self.records:
            for name in r[kind]:
                seen.setdefault(name, None)
        return list(seen)

    def unattributed(self) -> List[float]:
        return [r["total"] - sum(r["parts"].values()) for r in self.records]

    def metrics(self, speed: float = 1.0) -> Dict[str, float]:
        """Layer metrics: times as the median ms per request, scaled by
        the window's ``Samples.speed()``; counts as the mean per
        request."""
        out: Dict[str, float] = {}
        for kind in ("parts", "nested"):
            for name in self.names(kind):
                out[name] = median(self._series(kind, name)) * 1e3 * speed
        for name in self.names("counts"):
            out[name] = sum(self._series("counts", name)) / len(self.records)
        if self.records:
            out["ledger.unattributed_ms"] = (
                median(self.unattributed()) * 1e3 * speed
            )
        return out

    def table(self) -> str:
        """The per-layer table: median per request, run total, share of
        the summed request time, and the unattributed remainder."""
        n = len(self.records)
        grand = sum(r["total"] for r in self.records) or 1.0
        lines = [
            f"per-layer ledger: {n} records, one per {self.unit_of_work}; "
            f"share = layer total / summed {self.unit_of_work} time",
            f"  {'layer':36s} {'median ms':>10s} {'total s':>9s} "
            f"{'share':>7s}",
        ]

        def row(label: str, xs: List[float]) -> None:
            lines.append(
                f"  {label:36s} {median(xs) * 1e3:10.3f} {sum(xs):9.3f} "
                f"{100.0 * sum(xs) / grand:6.1f}%"
            )

        for name in self.names("parts"):
            row(name, self._series("parts", name))
        row("unattributed remainder", self.unattributed())
        row(f"= {self.unit_of_work} total", [r["total"] for r in self.records])
        for name in self.names("nested"):
            row("  within: " + name, self._series("nested", name))
        counts = self.names("counts")
        if counts:
            lines.append(f"  counts (mean per {self.unit_of_work}):")
            for name in counts:
                xs = self._series("counts", name)
                lines.append(f"    {name:34s} {sum(xs) / max(n, 1):14.2f}")
        return "\n".join(lines)


def span_seconds(roots, names: Sequence[str]) -> float:
    """Summed duration of every span named in ``names`` (a span nested
    in another listed span is not double-counted)."""
    wanted = set(names)
    total = 0.0
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name in wanted:
            total += span.duration
            continue
        stack.extend(span.children)
    return total


def event_seconds(events: Sequence[dict], names: Sequence[str]) -> float:
    """Summed ``dur`` (seconds) of Chrome trace events named in
    ``names`` -- the job traces a daemon serves on ``/trace``."""
    wanted = set(names)
    return sum(
        e.get("dur", 0.0) for e in events
        if e.get("ph") == "X" and e.get("name") in wanted
    ) / 1e6


def write_trace(tracer, workload: str, seed: int) -> Path:
    """Write the benchmark's own span forest as a Chrome trace."""
    from repro.obs.chrometrace import write_chrome_trace

    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload}-seed{seed}-trace.json"
    write_chrome_trace(
        str(path), tracer.roots, workload=f"perfbench {workload}"
    )
    return path
