"""ArtifactStore unit tests: round trip, corruption, version, LRU."""

import gc
import gzip
import json
import os
import time

import pytest

import repro.store.store as store_mod
from repro.store import ArtifactStore, STORE_FORMAT_VERSION


def test_put_get_roundtrip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    payload = {"x": [1, 2, 3], "y": {"nested": "ok"}}
    store.put("cp-abc", payload)
    assert store.get("cp-abc") == payload
    assert store.stats.puts == 1
    assert store.stats.hits == 1
    assert store.stats.misses == 0


def test_missing_key_is_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    assert store.get("cp-nothere") is None
    assert store.stats.misses == 1
    assert store.stats.errors == 0


def test_deterministic_bytes(tmp_path):
    """Same payload -> same artifact bytes (gzip mtime pinned)."""
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})
    first = open(store.path_of("k1"), "rb").read()
    time.sleep(0.01)
    store.put("k1", {"a": 1})
    assert open(store.path_of("k1"), "rb").read() == first


def test_truncated_artifact_is_miss_and_unlinked(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})
    path = store.path_of("k1")
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[: len(raw) // 2])
    assert store.get("k1") is None
    assert store.stats.errors == 1
    assert not os.path.exists(path)


def test_garbage_json_is_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    path = store.path_of("k1")
    with gzip.open(path, "wb") as fh:
        fh.write(b"this is not json {{{")
    assert store.get("k1") is None
    assert store.stats.errors == 1


def test_wrong_shape_is_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    path = store.path_of("k1")
    with gzip.open(path, "wb") as fh:
        fh.write(json.dumps([1, 2, 3]).encode())
    assert store.get("k1") is None
    assert store.stats.errors == 1


def test_format_version_skew_is_miss(tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})
    monkeypatch.setattr(
        store_mod, "STORE_FORMAT_VERSION", STORE_FORMAT_VERSION + 1
    )
    assert store.get("k1") is None
    assert store.stats.errors == 1


def test_decoder_failure_demotes_to_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})

    def decoder(payload):
        raise KeyError("stale payload semantics")

    assert store.load("k1", decoder) is None
    assert store.stats.hits == 0
    assert store.stats.misses == 1
    assert store.stats.errors == 1
    assert not os.path.exists(store.path_of("k1"))


def test_load_decodes(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 41})
    assert store.load("k1", lambda p: p["a"] + 1) == 42


@pytest.fixture
def collector_on():
    """The cyclic collector enabled for the test, and put back after."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_load_pauses_the_collector_and_restores_it(tmp_path, collector_on):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 41})
    seen = []

    def decoder(payload):
        seen.append(gc.isenabled())
        return payload["a"]

    assert store.load("k1", decoder) == 41
    assert seen == [False]
    assert gc.isenabled()
    # a miss restores it too
    assert store.load("nothere", decoder) is None
    assert gc.isenabled()


def test_raising_decoder_restores_the_collector(tmp_path, collector_on):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})

    def decoder(payload):
        raise ValueError("stale payload semantics")

    assert store.load("k1", decoder) is None
    assert gc.isenabled()


def test_load_leaves_a_disabled_collector_disabled(tmp_path, collector_on):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 41})
    gc.disable()
    assert store.load("k1", lambda p: p["a"]) == 41
    assert not gc.isenabled()


def test_lru_eviction_oldest_first(tmp_path):
    store = ArtifactStore(str(tmp_path))
    for i in range(4):
        store.put(f"k{i}", {"blob": "x" * 2000, "i": i})
        os.utime(store.path_of(f"k{i}"), (i, i))
    size = os.path.getsize(store.path_of("k0"))
    capped = ArtifactStore(str(tmp_path), max_bytes=2 * size)
    evicted = capped.evict()
    assert evicted == 2
    assert not os.path.exists(capped.path_of("k0"))
    assert not os.path.exists(capped.path_of("k1"))
    assert os.path.exists(capped.path_of("k2"))
    assert os.path.exists(capped.path_of("k3"))
    assert capped.total_bytes() <= 2 * size


def test_eviction_spares_a_put_in_flight(tmp_path):
    """A fresh temp file is another writer's put between write and
    rename: evicting it would fail that put.  A stale one is a killed
    writer's leftover and is collected."""
    store = ArtifactStore(str(tmp_path))
    store.put("k0", {"blob": "x" * 2000})
    os.utime(store.path_of("k0"), (0, 0))
    in_flight = os.path.join(store.objects_dir, ".tmp-k1-live")
    stale = os.path.join(store.objects_dir, ".tmp-k2-dead")
    for path in (in_flight, stale):
        with open(path, "wb") as fh:
            fh.write(b"x" * 2000)
    old = time.time() - 2 * store_mod.STALE_TEMP_SECONDS
    os.utime(stale, (old, old))
    capped = ArtifactStore(str(tmp_path), max_bytes=1)
    assert capped.evict() == 2
    assert os.path.exists(in_flight)
    assert not os.path.exists(stale)
    assert not os.path.exists(capped.path_of("k0"))


def test_hit_touches_mtime_for_lru(tmp_path):
    """A hit refreshes recency, protecting hot artifacts from eviction."""
    store = ArtifactStore(str(tmp_path))
    store.put("old", {"a": 1})
    store.put("hot", {"a": 2})
    os.utime(store.path_of("old"), (100, 100))
    os.utime(store.path_of("hot"), (50, 50))  # older on disk...
    store.get("hot")  # ...but just used
    size = os.path.getsize(store.path_of("old"))
    capped = ArtifactStore(str(tmp_path), max_bytes=size)
    capped.evict()
    assert not os.path.exists(capped.path_of("old"))
    assert os.path.exists(capped.path_of("hot"))


def test_put_evicts_when_capped(tmp_path):
    store = ArtifactStore(str(tmp_path), max_bytes=1)
    store.put("k1", {"a": 1})
    store.put("k2", {"a": 2})
    assert store.stats.evictions >= 1
    assert store.total_bytes() <= 1 or len(store.entries()) <= 1


def test_clear(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("k1", {"a": 1})
    store.put("k2", {"a": 2})
    store.clear()
    assert store.entries() == []
    assert store.get("k1") is None


def _temp_files(store):
    return [
        name for name in os.listdir(store.objects_dir)
        if name.startswith(".tmp-")
    ]


def test_put_that_cannot_write_counts_an_error_and_leaves_no_file(
    tmp_path, full_disk
):
    """A full disk mid-put: the temp file goes, no artifact lands, an
    error is counted, and the put returns instead of raising."""
    store = ArtifactStore(str(tmp_path))
    full_disk("cp-")
    store.put("cp-abc", {"a": 1})
    assert store.stats.errors == 1
    assert store.stats.puts == 0
    assert _temp_files(store) == []
    assert not os.path.exists(store.path_of("cp-abc"))
    assert store.get("cp-abc") is None
    store.put("ddg-abc", {"a": 1})  # the disk is full for cp- only
    assert store.get("ddg-abc") == {"a": 1}


def test_put_failure_that_is_not_an_os_error_raises(tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path))

    def broken_replace(src, dst):
        raise RuntimeError("not a disk error")

    monkeypatch.setattr(store_mod.os, "replace", broken_replace)
    with pytest.raises(RuntimeError, match="not a disk error"):
        store.put("cp-abc", {"a": 1})
    assert _temp_files(store) == []
    assert store.stats.errors == 0
