"""Layer-ledger benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same workload half untraced,
half traced, and prints the per-layer ledger (per-layer metrics, the
table with its unattributed remainder, the tracing overhead) and writes
the benchmark's own span forest as a Chrome trace under
``.perfbench/``.  Every report is checked for correctness; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric named and unit-tagged as in
``BENCHMARK.json``.

Times are reported at a reference host speed: a fixed pure-Python
probe runs after every request, and each time is scaled by
``PROBE_REF_S`` over the run's median probe (``common.Samples``).  The
raw figures are on the summary line.  FINDINGS.md says why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK, source_present  # noqa: E402

#: workload name -> module implementing ``run_<name>(seed, seconds, trace)``
WORKLOADS = {
    "cold_suite": "cold_suite",
    "cold_service": "service",
    "edit_loop": "edit_loop",
}


def metric_specs(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not source_present():
        print(
            f"perfbench: no analyzer sources under {SRC}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2

    if os.environ.get("PYTHONHASHSEED") != "0":
        # one string-hash layout for every run, this process and the
        # daemons it starts: set and dict order then repeat across runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    module = importlib.import_module(WORKLOADS[args.workload])
    runner = getattr(module, "run_" + args.workload)
    outcome = runner(args.seed, args.seconds, bool(args.trace))

    for line in outcome.lines:
        print(line)
    metrics = {}
    for spec in metric_specs(bool(args.trace)):
        value = float(outcome.metrics.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:36s} {value:14.4f} {spec['unit']}")
    fail_ratio = outcome.failed / max(outcome.attempted, 1)
    print(
        f"  {'fail_ratio':36s} {fail_ratio:14.4f} "
        f"({outcome.failed} of {outcome.attempted})"
    )
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
