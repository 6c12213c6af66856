"""Self-test of the layer-ledger benchmark.

    python3 perfbench/selftest.py

Checks, in order:

1. the composed ``cold_suite`` path (``profile_control``,
   ``profile_ddg`` through the timing proxy, ``finalize``, the schedule
   passes, the report render) yields report bytes identical to
   ``analyze()``'s for all 19 programs, so the traced decomposition
   measures the same program;
2. the edit-oracle claims ``edit_loop`` relies on: a renumbered twin
   reports what the reference engine reports for the unedited program,
   and two body edits of one function (different dead constants)
   report the same bytes;
3. ``layers.json`` names every per-layer metric of ``BENCHMARK.json``
   exactly once;
4. every workload, run at minimum length untraced and traced, prints
   every metric of its mode with its unit, end-to-end values above
   zero, and no failure (``fail_ratio`` 0);
5. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes
   the benchmark exit non-zero without printing a result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, ROOT, SRC, WORK, load_oracle, report_digest  # noqa: E402

sys.path.insert(0, str(SRC))

from repro.feedback.jsonout import render_json, report_document  # noqa: E402
from repro.incr import edited_spec, renumbered_spec  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.pipeline import analyze  # noqa: E402
from repro.workloads import rodinia_workloads  # noqa: E402

from cold_suite import composed  # noqa: E402
from run import WORKLOADS  # noqa: E402

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def composed_identity() -> None:
    for name, factory in rodinia_workloads().items():
        plain = render_json(report_document(analyze(factory())))
        raw, _ = composed(factory(), Tracer())
        check(raw == plain.encode("utf-8"), f"composed path == analyze(): {name}")


def edit_oracle() -> None:
    oracle = load_oracle()
    for name, factory in rodinia_workloads().items():
        program = factory().program
        funcs = sorted(f for f in program.functions if f != program.main)
        if not funcs:
            continue
        twin = report_document(analyze(renumbered_spec(factory(), 7000)))
        check(
            report_digest(twin) == oracle[name],
            f"renumbered twin matches the reference digest: {name}",
        )
        a, b = (
            render_json(
                report_document(analyze(edited_spec(factory(), funcs[0], value=v)))
            )
            for v in (11, 12345)
        )
        check(a == b, f"body edits of {name}:{funcs[0]} report the same bytes")


def layer_map() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    with open(HERE / "layers.json") as fh:
        listed = [m for layer in json.load(fh)["layers"] for m in layer["metrics"]]
    check(
        sorted(listed) == sorted(per_layer) and len(set(listed)) == len(listed),
        "layers.json lists every per-layer metric exactly once",
    )


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def workloads() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exits 0: {proc.stderr[-800:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{label} result keys",
            )
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{label} prints every metric with its unit")
            check(
                result["failed"] == 0 and result["correct"]
                and result["attempted"] > 0,
                f"{label} fail_ratio 0 ({result['failed']} of "
                f"{result['attempted']})",
            )
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                check(not zero, f"{label} end-to-end metrics above 0 {zero}")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(bare, "cold_suite", 0)
    printed = proc.stdout.strip().splitlines()
    check(
        proc.returncode != 0 and not (printed and printed[-1].startswith("{")),
        "bare directory: non-zero exit, no result",
    )
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    composed_identity()
    edit_oracle()
    layer_map()
    bare_directory()
    workloads()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
