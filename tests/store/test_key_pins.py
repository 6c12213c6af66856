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
from repro.incr import renumbered_spec
from repro.pipeline import analyze
from repro.service.jobs import JobOptions, derive_job_key
from repro.store import ArtifactStore, keys_for_spec
from repro.store.store import STORE_FORMAT_VERSION
from repro.workloads import all_workloads

_CP = "cp-6bd8b64f1eead58fd3ba6a3445e9fe26c7ead65a8bcf2aa567bacfffc92c4874"
_MAN = "man-41a0d38d25b243893d5beee4d5c1717fef7c20ab669b29033781546754427091"
_DDG = {
    None: "ddg-6e73d78c4d344ad584f564c87491db3250911ca979e49c6e28d6c04db59cbdfd",
    10: "ddg-c77e2fa9e8cde15acbcf1dd72feaf198e1df4b47691ae2809cd55e6a1baddf82",
}

#: the format-9 pins: format 10 dropped unread payload fields, not key
#: material, so the format-9 salt must still yield them
_V9 = {
    None: (
        "cp-71c7cbef95415d577c4f6286ff377d1c4cf17e0220526e5517d5270a57a6e4b5",
        "ddg-dac216114c76cc0e584c22106368dbed6c9d3c6f11e720941d1b5808017205dd",
        "man-868a27687749c11971af4d0f8f23f4842a3c876cc003948b93b45d771208dd41",
    ),
    10: (
        "cp-71c7cbef95415d577c4f6286ff377d1c4cf17e0220526e5517d5270a57a6e4b5",
        "ddg-fad921644a7df35a3a03f233885d3a0cc21a55c53bac7300f3aa13fcd2e0917b",
        "man-868a27687749c11971af4d0f8f23f4842a3c876cc003948b93b45d771208dd41",
    ),
}

#: the format-8 pins: formats 9 and 10 changed the payload layouts,
#: not the key material, so the format-8 salt must still yield them
_V8 = {
    None: (
        "cp-a4a21d3fa9c64666621f0b98e2dc42f855f69ff8381fbb11e04f76343462fe85",
        "ddg-5743688d3ebc64eb40f102d02d81a2838a0c2e532f12309a9da7f7a62301206b",
        "man-6720510067d824440922925aa5ef8b4f20bcbc559675597af3e7ea877d56c0f3",
    ),
    10: (
        "cp-a4a21d3fa9c64666621f0b98e2dc42f855f69ff8381fbb11e04f76343462fe85",
        "ddg-29133491e6c55146715cb9670d946fd8a2e6751e14f6a59c879848a19d98f311",
        "man-6720510067d824440922925aa5ef8b4f20bcbc559675597af3e7ea877d56c0f3",
    ),
}

#: the format-6 pins: formats 7 to 10 changed no key material but the
#: ``prog=`` field of the cp-/ddg- keys (format 8 hashes the canonical
#: program digest there, where format 6 hashed the exact one)
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

#: the format-7 manifest pin: formats 8 to 10 changed the cp-/ddg- key
#: material (the canonical program digest) or the payload layouts, not
#: the man- key's, so the format-7 salt must still yield it
_V7_MAN = (
    "man-fe2e647d7809b18c40991443f97f46ad4dc6b2eed70459d07d240526c6dc9d41"
)


def test_format_version_is_pinned():
    assert STORE_FORMAT_VERSION == 10


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_nn_store_keys_are_pinned(tmp_path, clamp):
    store = ArtifactStore(str(tmp_path))
    analyze(all_workloads()["nn"](), store=store, clamp=clamp)
    written = sorted(
        os.path.basename(path).split(".")[0] for path, _, _ in store.entries()
    )
    assert written == [_CP, _DDG[clamp], _MAN]


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_format_9_salt_reproduces_the_format_9_pins(monkeypatch, clamp):
    """With the format-9 salt the key derivation yields the format-9
    pins: the salt is the only change to the keys in format 10."""
    monkeypatch.setattr(keys_mod, "STORE_FORMAT_VERSION", 9)
    keys = keys_for_spec(all_workloads()["nn"](), fuel=50_000_000, clamp=clamp)
    assert (keys.stage1, keys.stage2, keys.manifest) == _V9[clamp]


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_format_8_salt_reproduces_the_format_8_pins(monkeypatch, clamp):
    """With the format-8 salt the key derivation yields the format-8
    pins: formats 9 and 10 changed only what the payloads hold."""
    monkeypatch.setattr(keys_mod, "STORE_FORMAT_VERSION", 8)
    keys = keys_for_spec(all_workloads()["nn"](), fuel=50_000_000, clamp=clamp)
    assert (keys.stage1, keys.stage2, keys.manifest) == _V8[clamp]


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_format_6_salt_reproduces_the_format_6_pins(monkeypatch, clamp):
    """With the format-6 salt and the exact digest in ``prog=``, the
    key derivation yields the format-6 pins: the canonical digest is
    the only change to the key material since format 6."""
    exact_digests = keys_mod.program_digests
    monkeypatch.setattr(keys_mod, "STORE_FORMAT_VERSION", 6)
    monkeypatch.setattr(
        keys_mod, "program_digests", lambda program: (exact_digests(program)[0],) * 2
    )
    keys = keys_for_spec(all_workloads()["nn"](), fuel=50_000_000, clamp=clamp)
    assert (keys.stage1, keys.stage2, keys.manifest) == _V6[clamp]


def test_format_7_salt_reproduces_the_format_7_manifest_pin(monkeypatch):
    monkeypatch.setattr(keys_mod, "STORE_FORMAT_VERSION", 7)
    keys = keys_for_spec(all_workloads()["nn"](), fuel=50_000_000, clamp=None)
    assert keys.manifest == _V7_MAN


@pytest.mark.parametrize("clamp", [None, 10], ids=["default", "clamp10"])
def test_nn_offset_twin_shares_artifact_keys_not_its_job_key(clamp):
    """The cp-/ddg- keys hash the canonical digest, so the twin is a
    warm hit on nn's artifacts; its manifest and its service job key
    hash the exact digest, because its documents name its own uids."""
    nn = all_workloads()["nn"]()
    twin = renumbered_spec(all_workloads()["nn"](), offset=7000)
    mine = keys_for_spec(twin, fuel=50_000_000, clamp=clamp)
    assert (mine.stage1, mine.stage2) == (_CP, _DDG[clamp])
    assert mine.manifest != _MAN
    options = JobOptions(clamp=clamp)
    assert derive_job_key(twin, options) != derive_job_key(nn, options)
