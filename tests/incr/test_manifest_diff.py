"""Program manifests and the static differ.

The differ never sees the baseline *program*, only its manifest: all
classification must come out of the per-function canonical
fingerprints alone.
"""


from repro.incr import (
    MANIFEST_FORMAT_VERSION,
    append_sink_instr,
    build_manifest,
    diff_document,
    diff_manifests,
)
from repro.incr.diff import diff_programs
from repro.incr.manifest import manifest_ok
from repro.isa.program import Function, Program
from repro.workloads import all_workloads


def _kmeans():
    return all_workloads()["kmeans"]().program


def _renumbered(program, offset=1000):
    from repro.incr import renumber_uids

    return renumber_uids(program, offset)


class TestManifest:
    def test_structure(self):
        m = build_manifest(_kmeans())
        assert m["format"] == MANIFEST_FORMAT_VERSION
        assert m["main"] == "main"
        assert len(m["digest"]) == 64
        assert set(m["functions"]) == {
            "main", "assign_points", "update_centers",
        }
        assert set(m) == {"format", "program", "main", "digest", "functions"}
        for name, entry in m["functions"].items():
            # exactly what diff_manifests reads
            assert set(entry) == {"local", "transitive", "blocks"}
            fn = _kmeans().functions[name]
            assert set(entry["blocks"]) == set(fn.blocks)

    def test_stored_manifest_reuses_the_keys_digest(self, tmp_path):
        """A stored run writes the manifest with the digest its keys
        already hold, and the bytes are those of a standalone build."""
        from repro.pipeline import analyze
        from repro.store import ArtifactStore, keys_for_spec

        spec = all_workloads()["kmeans"]()
        store = ArtifactStore(str(tmp_path))
        analyze(spec, store=store)
        keys = keys_for_spec(spec, fuel=50_000_000, clamp=None)
        assert store.get(keys.manifest) == build_manifest(_kmeans())
        assert build_manifest(_kmeans(), keys.program_digest) == (
            build_manifest(_kmeans())
        )

    def test_manifest_ok(self):
        m = build_manifest(_kmeans())
        assert manifest_ok(m)
        assert not manifest_ok(None)
        assert not manifest_ok({})
        assert not manifest_ok({**m, "format": MANIFEST_FORMAT_VERSION + 1})


class TestDiff:
    def test_identical_programs_all_unchanged(self):
        diff = diff_programs(_kmeans(), _kmeans())
        assert diff.all_unchanged
        assert diff.changed == []
        assert all(
            st.subtree_clean for st in diff.functions.values()
        )

    def test_uid_renumbering_is_unchanged(self):
        """Global uid renumbering must not look like an edit: the
        canonical fingerprints replace uids with local ordinals."""
        diff = diff_programs(_kmeans(), _renumbered(_kmeans()))
        assert diff.all_unchanged
        assert diff.baseline_digest != diff.program_digest

    def test_one_function_edit_is_modified(self):
        base = _kmeans()
        new = append_sink_instr(base, "assign_points")
        diff = diff_programs(base, new)
        assert diff.changed == ["assign_points"]
        st = diff.functions["assign_points"]
        assert st.status == "modified"
        # the edit touched exactly the entry block
        assert st.blocks_changed == [
            new.functions["assign_points"].entry
        ]
        assert not st.subtree_clean

    def test_callers_of_modified_are_unchanged_but_not_subtree_clean(self):
        base = _kmeans()
        diff = diff_programs(base, append_sink_instr(base, "assign_points"))
        main = diff.functions["main"]
        assert main.status == "unchanged"
        assert not main.subtree_clean  # a callee changed underneath
        other = diff.functions["update_centers"]
        assert other.status == "unchanged"
        assert other.subtree_clean

    def test_added_and_removed(self):
        base = _kmeans()
        new = _kmeans()
        spare = Function(name="spare", params=(), entry="entry")
        bb = spare.add_block("entry")
        from repro.isa.instructions import Return

        bb.terminator = Return()
        new.add_function(spare)
        diff = diff_programs(base, new)
        assert diff.functions["spare"].status == "added"
        back = diff_programs(new, base)
        assert back.functions["spare"].status == "removed"
        assert back.summary()["removed"] == 1

    def test_rename_pairing(self):
        base = _kmeans()
        fn = base.functions["update_centers"]
        renamed_fn = Function(
            name="recenter",
            params=tuple(fn.params),
            entry=fn.entry,
            blocks=dict(fn.blocks),
            src_loop_depth=fn.src_loop_depth,
            src_file=fn.src_file,
        )
        new_functions = {
            n: f for n, f in base.functions.items() if n != "update_centers"
        }
        new_functions["recenter"] = renamed_fn
        # keep 'main' calling the old name: unknown-callee is fine for
        # a manifest (fingerprints stay total over invalid programs)
        new = Program(functions=new_functions, main="main", name=base.name)
        diff = diff_programs(base, new)
        assert diff.functions["recenter"].status == "added"
        assert diff.functions["recenter"].renamed_from == "update_centers"
        assert diff.functions["update_centers"].status == "removed"
        assert diff.functions["update_centers"].renamed_to == "recenter"
        assert diff.summary()["renamed"] == 1

    def test_diff_document_shape(self):
        base = _kmeans()
        diff = diff_programs(base, append_sink_instr(base, "main"))
        doc = diff_document(
            diff, baseline_name="kmeans", program_name="kmeans+edit"
        )
        assert doc["kind"] == "diff"
        assert doc["baseline"]["name"] == "kmeans"
        assert doc["baseline"]["digest"] == diff.baseline_digest
        assert doc["program"]["digest"] == diff.program_digest
        assert doc["summary"]["modified"] == 1
        assert doc["functions"]["main"]["status"] == "modified"
        assert "frontier" not in doc
        assert doc["version"] == 2

    def test_diff_manifests_without_programs(self):
        """The differ works off two manifest dicts alone."""
        base = build_manifest(_kmeans())
        new = build_manifest(append_sink_instr(_kmeans(), "main"))
        diff = diff_manifests(base, new)
        assert diff.changed == ["main"]
