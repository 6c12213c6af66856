"""Keys of the incremental store levels (``man-`` and ``rgn-``)."""

import pytest

from repro.store import keys_for_spec
from repro.store.keys import derive_keys, manifest_key
from repro.workloads import all_workloads


def _keys(**overrides):
    opts = dict(
        fuel=50_000_000, max_pieces=6, clamp=None,
        track_anti_output=True, build_schedule_tree=True,
    )
    opts.update(overrides)
    return keys_for_spec(all_workloads()["kmeans"](), **opts)


def test_manifest_key_depends_on_program_digest_alone():
    a = _keys()
    b = _keys(fuel=1_000, clamp=7)
    assert a.manifest == b.manifest == manifest_key(a.program_digest)
    assert a.manifest.startswith("man-")
    assert manifest_key("ab" * 32) != a.manifest


def test_region_keys_distinct_per_function_and_options():
    a = _keys()
    funcs = sorted(all_workloads()["kmeans"]().program.functions)
    region_keys = [a.region(f) for f in funcs]
    assert len(set(region_keys)) == len(funcs)
    assert all(k.startswith("rgn-") for k in region_keys)
    # a stage-2-affecting option change moves every region key
    b = _keys(clamp=7)
    assert all(a.region(f) != b.region(f) for f in funcs)
    # the stage-2 key moved too (regions extend its material)
    assert a.stage2 != b.stage2


def test_region_requires_region_base():
    bare = derive_keys(
        "ab" * 32, "cd" * 32, fuel=1, max_pieces=6,
        clamp=None, track_anti_output=True, build_schedule_tree=True,
    )
    assert bare.region_base  # derive_keys always fills it
    from repro.store.keys import ArtifactKeys

    stripped = ArtifactKeys(
        stage1=bare.stage1,
        stage2=bare.stage2,
        program_digest=bare.program_digest,
        state_digest=bare.state_digest,
    )
    with pytest.raises(ValueError, match="region_base"):
        stripped.region("main")


def test_adversarial_function_names_cannot_collide():
    """The region key length-prefixes the function name, so a name
    embedding the separator cannot forge another function's key."""
    a = _keys()
    assert a.region("m|region[1]=x") != a.region("m")
