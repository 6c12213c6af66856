"""Regenerate ``oracle.json``: per-program digests of the
reference-engine report document (``engine`` field set aside) for the
19 Rodinia programs.

The reference engine is the executable specification the fast engine
must match byte for byte, so these digests are what every benchmark
report is checked against.  Rerun only when a change is meant to alter
report content::

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ORACLE, SRC, report_digest  # noqa: E402

sys.path.insert(0, str(SRC))

from repro.feedback.jsonout import report_document  # noqa: E402
from repro.pipeline import analyze  # noqa: E402
from repro.workloads import rodinia_workloads  # noqa: E402


def main() -> int:
    digests = {
        name: report_digest(
            report_document(analyze(factory(), engine="reference"))
        )
        for name, factory in rodinia_workloads().items()
    }
    with open(ORACLE, "w") as fh:
        json.dump({"engine": "reference", "digests": digests}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
