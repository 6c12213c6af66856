"""Sweep driver determinism and CLI surface tests (satellite 3).

The ``swp-`` model document must be a pure function of the point
*set* and the folded profiles: shuffled submission order and duplicate
points must both leave the payload bytes (and every confidence column)
unchanged.
"""

import json
import os

import pytest

from repro.cli import main
from repro.feedback.jsonout import render_json
from repro.sweep import SweepError, run_sweep, sweep_document

POINTS = [{"n": 8}, {"n": 10}, {"n": 12}]


def confidences(payload: dict):
    return [
        (row["nest"], row["depth"], row["confidence"])
        for row in payload["verdicts"]
    ]


@pytest.fixture(scope="module")
def baseline():
    return run_sweep("nw", POINTS, jobs=1)


class TestDeterminism:
    def test_shuffled_point_order_is_byte_identical(self, baseline):
        shuffled = run_sweep(
            "nw", [POINTS[2], POINTS[0], POINTS[1]], jobs=1
        )
        assert shuffled.key == baseline.key
        assert render_json(shuffled.payload) == render_json(
            baseline.payload
        )
        assert confidences(shuffled.payload) == confidences(
            baseline.payload
        )

    def test_duplicate_points_collapse(self, baseline):
        doubled = run_sweep("nw", POINTS + [{"n": 10}], jobs=1)
        assert doubled.key == baseline.key
        assert render_json(doubled.payload) == render_json(
            baseline.payload
        )


class TestDriver:
    def test_every_dep_is_classified(self, baseline):
        counts = baseline.model.classification_counts("deps")
        assert sum(counts.values()) == len(baseline.model.deps)
        assert set(counts) <= {
            "input-invariant", "shape-scaling", "input-dependent",
        }

    def test_warm_sweep_hits_the_store(self, tmp_path, baseline):
        cold = run_sweep(
            "nw", POINTS, jobs=1, cache_dir=str(tmp_path)
        )
        warm = run_sweep(
            "nw", POINTS, jobs=1, cache_dir=str(tmp_path)
        )
        assert all(r.cache_hit for r in warm.runs)
        # the store holds the points' artifacts, not the merged model
        assert not any(
            name.startswith("swp-")
            for name in os.listdir(tmp_path / "objects")
        )
        assert render_json(warm.payload) == render_json(cold.payload)
        assert render_json(cold.payload) == render_json(
            baseline.payload
        )

    def test_unknown_workload_raises(self):
        with pytest.raises(SweepError):
            run_sweep("no_such_workload", POINTS, jobs=1)

    def test_timeout_bounds_every_collected_point(self):
        """Without a warm phase the deadline must still bound the
        inline per-point analyses, and the error names the point."""
        with pytest.raises(SweepError, match=r"n.: 8.*timed out"):
            run_sweep("nw", POINTS, jobs=1, timeout=1e-4)

    def test_default_grid_requires_declared_sweeps(self):
        from repro.sweep.grid import GridError

        with pytest.raises(GridError):
            run_sweep("mm", None, jobs=1)


class TestCli:
    def test_sweep_json_matches_driver_document(
        self, baseline, capsys
    ):
        rc = main(
            [
                "sweep", "nw",
                "--point", "n=8",
                "--point", "n=10",
                "--point", "n=12",
                "-j", "1",
                "--format", "json",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out == render_json(sweep_document(baseline))
        doc = json.loads(out)
        assert doc["kind"] == "sweep"
        assert doc["key"].startswith("swp-")

    def test_sweep_text_has_confidence_column(self, capsys):
        rc = main(
            ["sweep", "nw", "--point", "n=8", "--point", "n=10",
             "-j", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "confidence" in out
        assert "nw" in out

    def test_timeout_exits_nonzero_naming_the_point(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "lud", "-j", "1", "--timeout", "0.0001",
                  "--no-cache"])
        assert "timed out after" in str(exc.value.code)
        assert "sweep point {" in str(exc.value.code)

    def test_bad_point_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "nw", "--point", "bogus"])
