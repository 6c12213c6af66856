"""Literal store keys of one workload, pinned.

A stored artifact is only reusable while its key material is
unchanged, so any drift in the ``cp-``/``ddg-``/``man-`` keys (an
option dropped from or added to the key string, a reordered field, a
changed fingerprint) must come with an explicit
``STORE_FORMAT_VERSION`` bump and a new pin here.
"""

import os

import pytest

from repro.pipeline import analyze
from repro.store import ArtifactStore
from repro.store.store import STORE_FORMAT_VERSION
from repro.workloads import all_workloads

_CP = "cp-10314e7c66321a43b6f88ce002d2e27944405cc54ecd8945dadf716b036ac40d"
_MAN = "man-2130442b5d742e00a7cf22e9f12a30d6ec5599e3e8be6b9788de47ea6790c3e4"


def test_format_version_is_pinned():
    assert STORE_FORMAT_VERSION == 4


@pytest.mark.parametrize(
    "clamp, ddg",
    [
        (None,
         "ddg-aa4e82c20b2747cf863e449824eea04fe06fddf19971a318e8a1d9011143d0db"),
        (10,
         "ddg-76234986b101f69fb5d71aa4fb64b39de761c606d6795b552859437a57dbf44e"),
    ],
    ids=["default", "clamp10"],
)
def test_nn_store_keys_are_pinned(tmp_path, clamp, ddg):
    store = ArtifactStore(str(tmp_path))
    analyze(all_workloads()["nn"](), store=store, clamp=clamp)
    written = sorted(
        os.path.basename(path).split(".")[0] for path, _, _ in store.entries()
    )
    assert written == [_CP, ddg, _MAN]
