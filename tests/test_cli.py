"""CLI tests (python -m repro ...)."""


import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out and "streamcluster" in out

    def test_report(self, capsys):
        assert main(["report", "nn"]) == 0
        out = capsys.readouterr().out
        assert "folded statements" in out
        assert "parallel=" in out

    def test_metrics(self, capsys):
        assert main(["metrics", "nn"]) == 0
        out = capsys.readouterr().out
        assert "%Aff" in out and "TileD" in out

    def test_static(self, capsys):
        assert main(["static", "nn"]) == 0
        out = capsys.readouterr().out
        assert "whole region modelable: False" in out

    def test_verify(self, capsys):
        assert main(["verify", "nn"]) == 0
        out = capsys.readouterr().out
        assert "all plans verified" in out

    def test_flamegraph(self, tmp_path, capsys):
        out_file = str(tmp_path / "fg.svg")
        assert main(["flamegraph", "nn", "-o", out_file]) == 0
        with open(out_file) as fh:
            svg = fh.read()
        assert svg.startswith("<svg")

    def test_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["report", "nope"])

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "backprop" in proc.stdout

    def test_regions(self, capsys):
        assert main(["regions", "nn"]) == 0
        out = capsys.readouterr().out
        assert "candidate regions" in out
        assert "transformable" in out


@pytest.mark.parametrize(
    "argv",
    (["report", "nn"], ["trace", "nn"], ["suite", "nn"], ["serve"]),
)
def test_engine_flag_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--engine", "reference"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestCliJsonFormat:
    def test_report_json_has_version(self, capsys):
        import json

        assert main(["report", "nn", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] >= 1
        assert doc["kind"] == "report"
        assert doc["workload"] == "nn"
        assert doc["engine"] == "fast"
        assert doc["summary"]["dyn_instrs"] > 0
        assert "poly-prof feedback: nn" in doc["report"]

    def test_metrics_json_has_version(self, capsys):
        import json

        assert main(["metrics", "nn", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] >= 1
        assert doc["kind"] == "metrics"
        assert isinstance(doc["row"], dict)

    def test_json_output_is_deterministic(self, capsys):
        assert main(["report", "nn", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["report", "nn", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_text_format_unchanged_by_default(self, capsys):
        assert main(["report", "nn"]) == 0
        out = capsys.readouterr().out
        assert not out.lstrip().startswith("{")


class TestCliCache:
    def test_report_cold_then_warm_identical_stdout(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(["report", "nn", "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["report", "nn", "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_env_var_default_and_no_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        assert main(["report", "nn"]) == 0
        capsys.readouterr()
        import os

        assert os.path.isdir(os.path.join(cache, "objects"))
        # exactly cp- + ddg- (which carries the folded DDG) + man-
        objects = os.listdir(os.path.join(cache, "objects"))
        assert sorted(name.split("-")[0] for name in objects) == [
            "cp", "ddg", "man",
        ]

        # --no-cache must win over the environment
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
        assert main(["report", "nn", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "never").exists()

    def test_suite_cache_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "suitecache")
        argv = ["suite", "nn", "nw", "-j", "1", "--cache", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cold" in cold and "cache:" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "warm" in warm
        assert "0 miss(es)" in warm


class TestCliTrace:
    def test_trace_text_summary(self, capsys):
        assert main(["trace", "nn"]) == 0
        out = capsys.readouterr().out
        assert "span tree for nn" in out
        assert "analyze" in out
        assert "instr1" in out and "instr2_fold" in out
        # deep tracing attaches execution counters to the execute spans
        assert "blocks=" in out

    def test_trace_chrome_json_artifact(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.obs import validate_chrome_trace

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "mm", "-o", "trace.json"]) == 0
        out = capsys.readouterr().out
        assert "wrote trace.json" in out
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(doc) > 0
        assert doc["otherData"]["workload"] == "mm"

    def test_trace_self_flamegraph_default_name(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "mm", "--flame"]) == 0
        assert "wrote mm_selfflame.svg" in capsys.readouterr().out
        svg = (tmp_path / "mm_selfflame.svg").read_text()
        assert "<svg" in svg and "analyze" in svg and "us self" in svg

    def test_trace_flame_explicit_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "self.svg")
        assert main(["trace", "nn", "--flame", out_file]) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        assert "<svg" in (tmp_path / "self.svg").read_text()

    def test_trace_json_document(self, capsys):
        import json

        assert main(["trace", "nn", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] >= 1
        assert doc["kind"] == "trace"
        assert doc["workload"] == "nn"
        assert set(doc["timings"]) == {"instr1", "instr2_fold", "feedback"}
        (root,) = doc["spans"]
        assert root["name"] == "analyze"
        assert [c["name"] for c in root["children"]] == [
            "instr1", "instr2_fold", "feedback",
        ]

    def test_trace_mem_records_deltas(self, capsys):
        assert main(["trace", "nn", "--mem"]) == 0
        assert "mem=" in capsys.readouterr().out

    def test_mm_workload_registered(self, capsys):
        assert main(["list"]) == 0
        assert "mm" in capsys.readouterr().out.split()


class TestDiffAndBaseline:
    def test_diff_self_is_clean(self, capsys):
        assert main(["diff", "kmeans", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "unchanged: 3" in out
        # a clean diff lists no function and no frontier
        assert len(out.splitlines()) == 2
        assert "frontier" not in out

    def test_diff_with_edit_names_frontier(self, capsys):
        assert main(
            ["diff", "kmeans", "kmeans", "--edit", "assign_points"]
        ) == 0
        out = capsys.readouterr().out
        assert "assign_points" in out and "modified" in out
        # the edit lands in the entry block; main calls the edited
        # function, update_centers does not
        assert "blocks: entry" in out
        (main_line,) = [
            line for line in out.splitlines() if line.split()[0] == "main"
        ]
        assert "(callee subtree changed)" in main_line
        assert "update_centers" not in out
        assert "frontier" not in out

    def test_diff_json_document(self, capsys):
        import json

        assert main(
            [
                "diff", "kmeans", "kmeans",
                "--edit", "assign_points", "--format", "json",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "diff"
        assert doc["summary"]["modified"] == 1
        assert doc["functions"]["assign_points"]["status"] == "modified"
        assert doc["functions"]["assign_points"]["blocks_changed"] == [
            "entry"
        ]
        assert not doc["functions"]["main"]["subtree_clean"]
        assert "frontier" not in doc
        assert doc["version"] == 2

    def test_diff_unknown_edit_function(self):
        with pytest.raises(SystemExit, match="no such function"):
            main(["diff", "kmeans", "kmeans", "--edit", "nope"])

    @pytest.mark.parametrize(
        "command", ["report", "metrics", "verify", "regions", "trace"]
    )
    def test_analysis_commands_take_no_baseline_flag(self, command, capsys):
        """A twin is a plain warm hit, so no analysis command takes a
        baseline: argparse refuses the flag before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main([command, "kmeans", "--baseline", "kmeans"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err
