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

_CP = "cp-11ab1163fd68afc45ea452992bec8f0c2a92e94952c5200df4084c6660ef61ed"
_MAN = "man-a5ca69747ffa2c6e801f80d037ce90234e6b2f8e98c72f3d9160029e5c5b6dce"


def test_format_version_is_pinned():
    assert STORE_FORMAT_VERSION == 5


@pytest.mark.parametrize(
    "clamp, ddg",
    [
        (None,
         "ddg-5a0c78bc2aed6bc7fc5a17d7a2594902299af02b57659fabf9bf6568e68db286"),
        (10,
         "ddg-947a7d5cce2f5319e1c99cf87ad02e909baa82eee7c926ad766e426448529ae1"),
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
