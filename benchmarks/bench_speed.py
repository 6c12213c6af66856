"""Engine speed comparison: fast path vs reference interpreter.

Times the three execution modes of the pipeline -- native run,
Instrumentation I, and Instrumentation II + folding -- per workload
for both engines (the block-compiled fast engine with the batched
builder and fast folding backend, and the reference per-instruction
interpreter with the reference folder), and reports the speedups.

Each (workload, engine, stage) cell is the **best of N** back-to-back
repetitions -- the minimum is the standard estimator for CPU-bound
timings (noise is strictly additive); the per-stage sample spread is
recorded alongside so a suspicious best can be judged against its own
variance.

Writes the machine-readable ``BENCH_speed.json`` next to the text
table so regressions are diffable, and asserts the headline claim:
the fast engine folds the whole suite's Instrumentation II at least
2x faster than the reference engine while producing bit-identical
DDGs (the equivalence tests assert the identity; this benchmark
asserts the speed).
"""

import json
import statistics
import time

from _harness import emit, format_table, once, results_path
from repro.folding import FastFoldingSink, FoldingSink
from repro.isa import run_program
from repro.obs import Tracer
from repro.pipeline import profile_control, profile_ddg
from repro.workloads import rodinia_workloads

ENGINES = (
    ("fast", FastFoldingSink),
    ("reference", FoldingSink),
)

STAGES = ("native", "instr1", "instr2_fold")

#: best-of-N repetitions per (workload, engine) cell
ROUNDS = 3


def _time_engine_once(spec, engine, sink_cls):
    args, mem = spec.make_state()
    t0 = time.perf_counter()
    run_program(spec.program, args=args, memory=mem, engine=engine)
    native = time.perf_counter() - t0

    tracer = Tracer()
    control = profile_control(spec, engine=engine, tracer=tracer)
    stage1 = tracer.roots[0].find("stage1.execute").duration

    sink = sink_cls()
    t0 = time.perf_counter()
    profile_ddg(spec, control, sink=sink, engine=engine)
    sink.finalize()
    stage2 = time.perf_counter() - t0
    return {"native": native, "instr1": stage1, "instr2_fold": stage2}


def _time_engine(spec, engine, sink_cls, rounds=ROUNDS):
    """Best-of-``rounds`` per stage, plus the sample spread."""
    samples = {stage: [] for stage in STAGES}
    for _ in range(rounds):
        one = _time_engine_once(spec, engine, sink_cls)
        for stage in STAGES:
            samples[stage].append(one[stage])
    best = {stage: min(samples[stage]) for stage in STAGES}
    spread = {
        stage: {
            "min": min(vals),
            "max": max(vals),
            "mean": statistics.fmean(vals),
            "variance": statistics.pvariance(vals),
        }
        for stage, vals in samples.items()
    }
    return best, spread


def run_speed():
    data = {}
    spreads = {}
    for name, factory in rodinia_workloads().items():
        spec = factory()
        data[name] = {}
        spreads[name] = {}
        for engine, sink_cls in ENGINES:
            best, spread = _time_engine(spec, engine, sink_cls)
            data[name][engine] = best
            spreads[name][engine] = spread
    totals = {
        engine: {
            stage: sum(data[n][engine][stage] for n in data)
            for stage in STAGES
        }
        for engine, _ in ENGINES
    }
    return data, spreads, totals


def test_engine_speed(benchmark):
    data, spreads, totals = once(benchmark, run_speed)

    rows = []
    for name, per in data.items():
        f, r = per["fast"], per["reference"]
        rows.append([
            name,
            f"{1000 * f['native']:.0f}ms",
            f"{1000 * f['instr2_fold']:.0f}ms",
            f"{1000 * r['instr2_fold']:.0f}ms",
            f"{r['native'] / f['native']:.2f}x" if f["native"] else "-",
            (
                f"{r['instr2_fold'] / f['instr2_fold']:.2f}x"
                if f["instr2_fold"]
                else "-"
            ),
        ])
    speedup = {
        stage: totals["reference"][stage] / totals["fast"][stage]
        for stage in ("native", "instr1", "instr2_fold")
        if totals["fast"][stage]
    }
    rows.append([
        "TOTAL",
        f"{1000 * totals['fast']['native']:.0f}ms",
        f"{1000 * totals['fast']['instr2_fold']:.0f}ms",
        f"{1000 * totals['reference']['instr2_fold']:.0f}ms",
        f"{speedup['native']:.2f}x",
        f"{speedup['instr2_fold']:.2f}x",
    ])
    table = format_table(
        ["benchmark", "fast native", "fast II+fold", "ref II+fold",
         "native speedup", "II+fold speedup"],
        rows,
        title="Engine speed: block-compiled fast path vs reference",
    )
    emit("engine_speed.txt", table)

    with open(results_path("BENCH_speed.json"), "w") as fh:
        json.dump(
            {
                "rounds": ROUNDS,
                "per_workload": data,
                "spread": spreads,
                "totals": totals,
                "speedup": speedup,
            },
            fh,
            indent=2,
            sort_keys=True,
        )

    # the PR's headline: >= 2x on the suite's Instrumentation II + fold
    assert speedup["instr2_fold"] >= 2.0, (
        f"fast engine only {speedup['instr2_fold']:.2f}x faster on "
        "Instrumentation II + folding"
    )
    # and the compiled VM must not be slower natively
    assert speedup["native"] >= 1.0
