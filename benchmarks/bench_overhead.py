"""Experiment I: cost of the dynamic analysis.

The paper reports 3h06' of CPU time for the first three POLY-PROF
stages over the full Rodinia suite (shadow memory is not free).  We
measure the same shape at our scale: native execution vs
Instrumentation I vs Instrumentation II + folding, per benchmark and
total, and report the slowdown factors.
"""

import time


from _harness import emit, format_table, once
from repro.folding import FoldingSink
from repro.isa import run_program
from repro.obs import Tracer
from repro.pipeline import profile_control, profile_ddg
from repro.workloads import rodinia_workloads


def run_overhead():
    rows = []
    totals = [0.0, 0.0, 0.0]
    for name, factory in rodinia_workloads().items():
        spec = factory()
        args, mem = spec.make_state()
        t0 = time.perf_counter()
        run_program(spec.program, args=args, memory=mem)
        native = time.perf_counter() - t0

        tracer = Tracer()
        control = profile_control(spec, tracer=tracer)
        stage1 = tracer.roots[0].find("stage1.execute").duration

        sink = FoldingSink()
        t0 = time.perf_counter()
        profile_ddg(spec, control, sink=sink)
        sink.finalize()
        stage2 = time.perf_counter() - t0

        totals[0] += native
        totals[1] += stage1
        totals[2] += stage2
        rows.append([
            name,
            f"{1000 * native:.0f}ms",
            f"{1000 * stage1:.0f}ms",
            f"{1000 * stage2:.0f}ms",
            f"{stage1 / native:.1f}x" if native > 0 else "-",
            f"{stage2 / native:.1f}x" if native > 0 else "-",
        ])
    rows.append([
        "TOTAL",
        f"{1000 * totals[0]:.0f}ms",
        f"{1000 * totals[1]:.0f}ms",
        f"{1000 * totals[2]:.0f}ms",
        f"{totals[1] / totals[0]:.1f}x",
        f"{totals[2] / totals[0]:.1f}x",
    ])
    return rows, totals


def test_experiment1_analysis_overhead(benchmark):
    rows, totals = once(benchmark, run_overhead)
    table = format_table(
        ["benchmark", "native", "instr. I", "instr. II + fold",
         "I slowdown", "II slowdown"],
        rows,
        title=(
            "Experiment I: analysis cost over the suite "
            "(paper: 3h06' CPU total on their testbed)"
        ),
    )
    emit("experiment1_overhead.txt", table)

    # the paper's qualitative point: dependence profiling with shadow
    # memory costs a significant multiple of native execution
    assert totals[2] > totals[0]
    assert totals[1] > 0
