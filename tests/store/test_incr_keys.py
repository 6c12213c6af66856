"""Key of the incremental store level (``man-``)."""

from repro.store import keys_for_spec
from repro.store.keys import manifest_key
from repro.workloads import all_workloads


def _keys(**overrides):
    opts = dict(
        fuel=50_000_000, clamp=None,
    )
    opts.update(overrides)
    return keys_for_spec(all_workloads()["kmeans"](), **opts)


def test_manifest_key_depends_on_program_digest_alone():
    a = _keys()
    b = _keys(fuel=1_000, clamp=7)
    assert a.manifest == b.manifest == manifest_key(a.program_digest)
    assert a.manifest.startswith("man-")
    assert manifest_key("ab" * 32) != a.manifest
