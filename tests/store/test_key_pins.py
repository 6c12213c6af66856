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

_CP = "cp-a086a857c43f6ac33b2358c9c781d487c8a40d3e12e91c4c5a64b25cd07cd582"
_MAN = "man-50341509a22f1a4e514a06e75d7f6b1027b8f8cc2e1ca0a4609f164fa85abdd9"


def test_format_version_is_pinned():
    assert STORE_FORMAT_VERSION == 6


@pytest.mark.parametrize(
    "clamp, ddg",
    [
        (None,
         "ddg-9a1a4016ce87932dd3c004c61f1d70eda2bc44e246505d530aa80e65459ed3bd"),
        (10,
         "ddg-79972b51992aa7846086315cb09b13295bee2d27a094cfe22558415e36c9540e"),
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
