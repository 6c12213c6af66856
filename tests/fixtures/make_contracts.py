"""Regenerate ``tests/fixtures/contracts.json``: the pinned contracts.

For every registered workload, at each clamp in :data:`CLAMPS`, a
store-less cold ``analyze()`` is reduced to the sha256 of its rendered
report and metrics JSON and to its counted work -- ``isa.dyn_instrs``,
``folding.stmts`` and ``folding.deps``, read as
``perfbench/cold_suite.py`` reads them.  ``ddg.instr_points`` and
``ddg.dep_points`` are not pinned: ``analyze()`` takes no sink to
count them with, and a second, composed run per workload would double
the cost of the check.

``tests/integration/test_contracts.py`` compares a fresh run with the
fixture.  A change that alters analysis output on purpose reruns::

    PYTHONPATH=src python tests/fixtures/make_contracts.py

and lists every entry it reports as changed in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.feedback.jsonout import metrics_document, render_json, report_document
from repro.pipeline import analyze
from repro.workloads import all_workloads

FIXTURE = Path(__file__).with_name("contracts.json")

#: the clamps every workload is pinned at
CLAMPS = (None, 5)

FORMAT = 1


def clamp_key(clamp: Optional[int]) -> str:
    return f"clamp={clamp}"


def contract_of(result) -> dict:
    """The pinned facts of one analysis result."""

    def sha(doc) -> str:
        return hashlib.sha256(render_json(doc).encode("utf-8")).hexdigest()

    return {
        "report_sha256": sha(report_document(result)),
        "metrics_sha256": sha(metrics_document(result)),
        "isa.dyn_instrs": result.ddg_profile.stats.dyn_instrs,
        "folding.stmts": result.folded.stmt_count(),
        "folding.deps": len(result.folded.deps),
    }


def generate() -> dict:
    reg = all_workloads()
    return {
        "format": FORMAT,
        "workloads": {
            name: {
                clamp_key(clamp): contract_of(analyze(reg[name](), clamp=clamp))
                for clamp in CLAMPS
            }
            for name in sorted(reg)
        },
    }


def main() -> int:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = generate()
    old_runs = old.get("workloads", {})
    for name, runs in new["workloads"].items():
        for clamp, facts in runs.items():
            before = old_runs.get(name, {}).get(clamp, {})
            for field, value in facts.items():
                if before.get(field) != value:
                    print(f"{name} {clamp} {field}: {before.get(field)} -> {value}")
    FIXTURE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
