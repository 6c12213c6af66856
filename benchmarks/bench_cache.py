"""Artifact-store benchmark: cold vs warm full-suite analysis.

Runs the whole Rodinia registry through :func:`repro.runner.run_suite`
twice against one artifact store: once cold (populating it) and then
warm (every workload served from the store).  Gates the PR's headline
claims:

* a warm suite is at least **10x** faster than the cold one, end to
  end (spec construction, artifact decode, feedback re-analysis and
  report rendering all included in the warm time);
* the warm feedback reports are **bit-identical** to the cold ones;
* every stage-2 payload (the folded DDG as per-function regions,
  profile metadata, dependence vectors) survives an encode -> decode
  -> encode round trip byte-identically (the codec is a fixpoint, not
  merely lossless).

The warm side is best-of-N (noise is additive, the minimum is the
estimator); the cold side is a single run, since its noise only makes
the gate harder to pass.  Writes ``BENCH_cache.json``.
"""

import json
import shutil
import tempfile
import time

from _harness import emit, format_table, once, results_path
from repro.pipeline import analyze
from repro.runner import run_suite
from repro.store import ArtifactStore, decode_stage2, encode_stage2
from repro.workloads import rodinia_workloads

#: warm repetitions (best-of)
WARM_ROUNDS = 3

#: required cold/warm suite speedup
GATE = 10.0


def _suite(names, cache_dir):
    t0 = time.perf_counter()
    results = run_suite(
        names, jobs=1, with_report=True, cache_dir=cache_dir
    )
    return time.perf_counter() - t0, results


def run_cache():
    names = list(rodinia_workloads())
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        t_cold, cold = _suite(names, cache_dir)

        warm_times = []
        warm = None
        for _ in range(WARM_ROUNDS):
            t, warm = _suite(names, cache_dir)
            warm_times.append(t)
        t_warm = min(warm_times)

        store = ArtifactStore(cache_dir)
        store_objects = len(store.entries())
        store_bytes = store.total_bytes()

        # round-trip fixpoint: re-encoding a decoded stage-2 payload
        # must reproduce the encoding exactly, for every workload
        roundtrip_failures = []
        for name, factory in rodinia_workloads().items():
            spec = factory()
            result = analyze(spec, store=store)
            enc = json.dumps(encode_stage2(
                spec.program, result.folded, result.ddg_profile,
                result.forest.deps,
            ))
            folded, ddgp, vectors = decode_stage2(
                json.loads(enc), spec.program
            )
            if json.dumps(
                encode_stage2(spec.program, folded, ddgp, vectors)
            ) != enc:
                roundtrip_failures.append(name)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold": cold,
        "warm": warm,
        "t_cold": t_cold,
        "t_warm": t_warm,
        "warm_times": warm_times,
        "store_objects": store_objects,
        "store_bytes": store_bytes,
        "roundtrip_failures": roundtrip_failures,
    }


def test_cache_speed(benchmark):
    r = once(benchmark, run_cache)
    cold, warm = r["cold"], r["warm"]
    speedup = r["t_cold"] / r["t_warm"] if r["t_warm"] else float("inf")

    assert all(c.ok for c in cold), [c.error for c in cold if not c.ok]
    assert all(w.ok for w in warm), [w.error for w in warm if not w.ok]
    assert all(w.cache_hit for w in warm), (
        "warm pass missed the cache: "
        + ", ".join(w.name for w in warm if not w.cache_hit)
    )
    mismatched = [
        c.name for c, w in zip(cold, warm) if c.report != w.report
    ]
    assert not mismatched, f"warm reports differ: {mismatched}"
    assert not r["roundtrip_failures"], (
        f"stage-2 codec not a fixpoint for: {r['roundtrip_failures']}"
    )

    rows = []
    for c, w in zip(cold, warm):
        rows.append([
            c.name,
            f"{1000 * c.wall_seconds:.0f}ms",
            f"{1000 * w.wall_seconds:.0f}ms",
            (
                f"{c.wall_seconds / w.wall_seconds:.1f}x"
                if w.wall_seconds
                else "-"
            ),
        ])
    rows.append([
        "TOTAL",
        f"{1000 * r['t_cold']:.0f}ms",
        f"{1000 * r['t_warm']:.0f}ms",
        f"{speedup:.1f}x",
    ])
    table = format_table(
        ["benchmark", "cold", "warm", "speedup"],
        rows,
        title=(
            "Artifact store: cold vs warm suite "
            f"(best of {WARM_ROUNDS} warm; "
            f"{r['store_objects']} artifacts, "
            f"{r['store_bytes'] / 1024:.0f} KiB)"
        ),
    )
    emit("cache_speed.txt", table)

    with open(results_path("BENCH_cache.json"), "w") as fh:
        json.dump(
            {
                "warm_rounds": WARM_ROUNDS,
                "gate": GATE,
                "t_cold": r["t_cold"],
                "t_warm": r["t_warm"],
                "warm_times": r["warm_times"],
                "speedup": speedup,
                "store_objects": r["store_objects"],
                "store_bytes": r["store_bytes"],
                "per_workload": {
                    c.name: {
                        "cold_wall": c.wall_seconds,
                        "warm_wall": w.wall_seconds,
                        "cold_stages": {
                            "instr1": c.t_instr1,
                            "instr2_fold": c.t_instr2_fold,
                            "feedback": c.t_feedback,
                        },
                        "warm_stages": {
                            "instr1": w.t_instr1,
                            "instr2_fold": w.t_instr2_fold,
                            "feedback": w.t_feedback,
                        },
                    }
                    for c, w in zip(cold, warm)
                },
            },
            fh,
            indent=2,
            sort_keys=True,
        )

    assert speedup >= GATE, (
        f"warm suite only {speedup:.1f}x faster than cold "
        f"(gate: {GATE:.0f}x)"
    )
