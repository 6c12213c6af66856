"""Literal store keys of one workload, pinned.

A stored artifact is only reusable while its key material is
unchanged, so any drift in the ``cp-``/``ddg-``/``man-`` keys (an
option dropped from or added to the key string, a reordered field, a
changed fingerprint) must come with an explicit
``STORE_FORMAT_VERSION`` bump and a new pin here.
"""

import os

import pytest

import repro.store.keys as keys_mod
from repro.pipeline import analyze
from repro.store import ArtifactStore, keys_for_spec
from repro.store.store import STORE_FORMAT_VERSION
from repro.workloads import all_workloads

_CP = "cp-6583c5331e879242b81692d7cd1e3307087544068fc9fd1111858f4e303e56e0"
_MAN = "man-fe2e647d7809b18c40991443f97f46ad4dc6b2eed70459d07d240526c6dc9d41"
_DDG = {
    None: "ddg-ddd1889c1c0cb72a0d57758e76f536533f1aab4721f3569975149cf48da79987",
    10: "ddg-f420caea375046450e669bb2d2e166aa90e9ae2ccfd9e3d36ffbfca42ae790c0",
}

#: the format-6 pins: format 7 changed the manifest payload, not the
#: key material, so the format-6 salt must still yield them
_V6 = {
    None: (
        "cp-a086a857c43f6ac33b2358c9c781d487c8a40d3e12e91c4c5a64b25cd07cd582",
        "ddg-9a1a4016ce87932dd3c004c61f1d70eda2bc44e246505d530aa80e65459ed3bd",
        "man-50341509a22f1a4e514a06e75d7f6b1027b8f8cc2e1ca0a4609f164fa85abdd9",
    ),
    10: (
        "cp-a086a857c43f6ac33b2358c9c781d487c8a40d3e12e91c4c5a64b25cd07cd582",
        "ddg-79972b51992aa7846086315cb09b13295bee2d27a094cfe22558415e36c9540e",
        "man-50341509a22f1a4e514a06e75d7f6b1027b8f8cc2e1ca0a4609f164fa85abdd9",
    ),
}


def test_format_version_is_pinned():
    assert STORE_FORMAT_VERSION == 7


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_nn_store_keys_are_pinned(tmp_path, clamp):
    store = ArtifactStore(str(tmp_path))
    analyze(all_workloads()["nn"](), store=store, clamp=clamp)
    written = sorted(
        os.path.basename(path).split(".")[0] for path, _, _ in store.entries()
    )
    assert written == [_CP, _DDG[clamp], _MAN]


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_format_6_salt_reproduces_the_format_6_pins(monkeypatch, clamp):
    monkeypatch.setattr(keys_mod, "STORE_FORMAT_VERSION", 6)
    keys = keys_for_spec(all_workloads()["nn"](), fuel=50_000_000, clamp=clamp)
    assert (keys.stage1, keys.stage2, keys.manifest) == _V6[clamp]
