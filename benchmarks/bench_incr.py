"""Incremental re-analysis benchmark: edit-to-report latency vs cold.

For each workload of the suite a baseline analysis populates an
artifact store (``man-`` manifest + ``ddg-`` stage-2 payload, whose
folded DDG is stored as per-function regions), then two classes of
program edit are re-analyzed against it:

* **renumber** -- a uid-renumbered twin
  (:func:`repro.incr.renumbered_spec`): the recompiled-after-a-
  formatting-only-change scenario.  Its canonical program digest is
  unchanged, so it shares the baseline's ``cp-``/``ddg-`` keys and
  nothing executes (``warm`` mode): the baseline's stage-1 artifact
  and stage-2 payload, dependence vectors included, are decoded
  against the twin, and nothing is re-written.  This class carries
  the gate: the suite-total speedup over a cold analysis must be at
  least ``GATE``x (override: ``REPRO_INCR_GATE``; CI uses a relaxed
  value -- shared runners throttle).

* **body** -- a one-function sink edit
  (:func:`repro.incr.edited_spec`): the honest small-edit scenario.
  The diff is not all-unchanged, so the run plans ``cold`` (reason
  ``program-changed``) without reading the baseline's stage-2 payload:
  a dependence profile comes from a whole-program execution, and a
  body edit reaches nearly all of it.  The cell is reported but **not**
  gated (its "speedup" is cold against cold, ~1x); it still checks
  byte identity and records the mode so nobody has to guess.

The cold side is measured against a *fresh* store so both sides pay
the same artifact write-through.  Incremental cells are best-of-
``INC_ROUNDS`` with a distinct edit per round (for body edits, a
repeated digest would short-circuit into a plain warm hit); cold
cells are best-of-
``COLD_ROUNDS``.

Byte identity is asserted for **every** cell, both classes: the
rendered report and metrics JSON of the incremental run must equal a
cold analysis of the identical edited program.  Writes
``BENCH_incr.json`` next to the text table.
"""

import json
import os
import shutil
import tempfile
import time

from _harness import emit, format_table, once, results_path
from repro.feedback.jsonout import (
    metrics_document,
    render_json,
    report_document,
)
from repro.incr import edited_spec, renumbered_spec
from repro.isa import fingerprint_program
from repro.pipeline import analyze
from repro.store import ArtifactStore
from repro.workloads import all_workloads
from repro.workloads.polybench import build_jacobi2d, build_seidel2d

#: required suite-total renumber-edit speedup (cold / incremental)
GATE = 5.0

#: best-of-N repetitions per incremental cell (distinct edit each)
INC_ROUNDS = 3

#: best-of-N repetitions per cold cell
COLD_ROUNDS = 2

#: polybench stencils are scaled past their unit-test size: incremental
#: re-analysis targets long runs, where analysis cost is execution-bound
STEPS = 16


def _suite_specs():
    """name -> zero-arg spec factory, multi-function Rodinia plus two
    scaled stencils (execution-bound single-function cases)."""
    w = all_workloads()
    # the registered pb_* factories declare no params, so the scaled
    # stencils are built directly
    return {
        "jacobi2d_s16": lambda: build_jacobi2d(steps=STEPS),
        "seidel2d_s16": lambda: build_seidel2d(steps=STEPS),
        "heartwall": w["heartwall"],
        "gemsfdtd": w["gemsfdtd"],
        "lavaMD": w["lavaMD"],
        "srad_v1": w["srad_v1"],
        "kmeans": w["kmeans"],
        "backprop": w["backprop"],
    }


def _gate():
    """(threshold, source) -- the env var overrides the default."""
    env = os.environ.get("REPRO_INCR_GATE")
    if env:
        return float(env), f"REPRO_INCR_GATE={env}"
    return GATE, "default"


def _docs(result):
    return (
        render_json(report_document(result)),
        render_json(metrics_document(result)),
    )


def _timed(spec, store, baseline=None):
    t0 = time.perf_counter()
    result = analyze(spec, store=store, baseline=baseline)
    return time.perf_counter() - t0, result


def _cold_best(make_spec):
    """Best-of-N cold runs, each against a fresh store (paying the
    same manifest/region write-through as the incremental side).
    Returns (seconds, docs-of-first-run)."""
    best, docs = float("inf"), None
    for _ in range(COLD_ROUNDS):
        cold_dir = tempfile.mkdtemp(prefix="repro-bench-incr-cold-")
        try:
            dt, result = _timed(make_spec(), ArtifactStore(cold_dir))
        finally:
            shutil.rmtree(cold_dir, ignore_errors=True)
        best = min(best, dt)
        if docs is None:
            docs = _docs(result)
    return best, docs


def _edit_cell(store, baseline, make_edit, cold_docs):
    """Best-of-N incremental runs of ``make_edit(round)`` (each round a
    distinct program) against a cold analysis of the same round-0
    edit."""
    best, info, identical = float("inf"), None, False
    for r in range(INC_ROUNDS):
        dt, result = _timed(make_edit(r), store, baseline=baseline)
        best = min(best, dt)
        if r == 0:
            info = result.incremental
            identical = _docs(result) == cold_docs
    return {
        "inc_seconds": best,
        "mode": info.mode,
        "reason": info.reason,
        "regions_reused": info.regions_reused,
        "byte_identical": identical,
    }


def run_incr():
    cases = {}
    for name, factory in _suite_specs().items():
        base_dir = tempfile.mkdtemp(prefix="repro-bench-incr-")
        try:
            spec = factory()
            baseline = fingerprint_program(spec.program)
            store_base = ArtifactStore(base_dir)
            analyze(spec, store=store_base)

            program = spec.program
            funcs = sorted(program.functions)

            # renumber class: round r shifts every uid by 1000*(r+1)
            t_cold, cold_docs = _cold_best(
                lambda: renumbered_spec(factory(), offset=1000)
            )
            renum = _edit_cell(
                store_base,
                baseline,
                lambda r: renumbered_spec(factory(), offset=1000 * (r + 1)),
                cold_docs,
            )
            renum["cold_seconds"] = t_cold

            # body class: round r appends a distinct dead const to the
            # first non-entry function (multi-function workloads only)
            body = None
            targets = [f for f in funcs if f != program.main]
            if targets:
                func = targets[0]
                t_cold, cold_docs = _cold_best(
                    lambda: edited_spec(factory(), func, value=11)
                )
                body = _edit_cell(
                    store_base,
                    baseline,
                    lambda r: edited_spec(factory(), func, value=11 + r),
                    cold_docs,
                )
                body["cold_seconds"] = t_cold
                body["edited_func"] = func
        finally:
            shutil.rmtree(base_dir, ignore_errors=True)
        cases[name] = {
            "functions": len(funcs),
            "renumber": renum,
            "body": body,
        }
    return cases


def _speedup(cell):
    return cell["cold_seconds"] / cell["inc_seconds"]


def test_incremental_speed(benchmark):
    cases = once(benchmark, run_incr)
    threshold, source = _gate()

    broken = [
        (name, cls)
        for name, c in cases.items()
        for cls in ("renumber", "body")
        if c[cls] is not None and not c[cls]["byte_identical"]
    ]
    assert not broken, f"incremental output differs from cold: {broken}"

    not_warm = [
        name
        for name, c in cases.items()
        if c["renumber"]["mode"] != "warm"
    ]
    assert not_warm == [], (
        "renumber edits must take the no-execution path, got: "
        + ", ".join(f"{n}={cases[n]['renumber']['mode']}" for n in not_warm)
    )

    rows = []
    for name, c in cases.items():
        r, b = c["renumber"], c["body"]
        rows.append([
            name,
            c["functions"],
            f"{1000 * r['cold_seconds']:.0f}ms",
            f"{1000 * r['inc_seconds']:.0f}ms",
            f"{_speedup(r):.1f}x",
            (
                f"{1000 * b['inc_seconds']:.0f}ms {_speedup(b):.2f}x "
                f"({b['mode']})"
                if b
                else "-"
            ),
        ])
    t_cold = sum(c["renumber"]["cold_seconds"] for c in cases.values())
    t_inc = sum(c["renumber"]["inc_seconds"] for c in cases.values())
    suite_speedup = t_cold / t_inc
    rows.append([
        "TOTAL", "",
        f"{1000 * t_cold:.0f}ms",
        f"{1000 * t_inc:.0f}ms",
        f"{suite_speedup:.1f}x",
        "",
    ])
    table = format_table(
        ["workload", "funcs", "cold", "renumber", "speedup", "body edit"],
        rows,
        title=(
            "Incremental re-analysis vs cold (renumber = formatting-"
            f"only recompile, best of {INC_ROUNDS}; gate {threshold}x "
            f"[{source}]; body edits shown honestly, not gated)"
        ),
    )
    emit("incr_speed.txt", table)

    with open(results_path("BENCH_incr.json"), "w") as fh:
        json.dump(
            {
                "gate": threshold,
                "gate_source": source,
                "inc_rounds": INC_ROUNDS,
                "cold_rounds": COLD_ROUNDS,
                "suite_cold_seconds": t_cold,
                "suite_inc_seconds": t_inc,
                "suite_speedup": suite_speedup,
                "cases": cases,
            },
            fh,
            indent=2,
            sort_keys=True,
        )

    assert suite_speedup >= threshold, (
        f"renumber-edit suite only {suite_speedup:.1f}x faster than "
        f"cold (gate: {threshold}x)"
    )
