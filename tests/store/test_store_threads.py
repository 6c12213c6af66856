"""Thread-safety of one shared ArtifactStore handle.

The service's worker pool shares a single store instance across
threads; these tests hammer that handle from many threads and assert
no torn payloads, no lost counter increments, and sane LRU eviction
under concurrent touches.
"""

import gc
import threading

import pytest

from repro.store import ArtifactStore


def _payload(tag, size=50):
    return {"tag": tag, "data": list(range(size))}


class TestConcurrentAccess:
    def test_same_key_put_get_hammer(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "cp-" + "a" * 64
        store.put(key, _payload("seed"))
        n_threads, n_iters = 8, 40
        torn = []

        def _worker(tid):
            for i in range(n_iters):
                store.put(key, _payload(f"{tid}:{i}"))
                got = store.get(key)
                # last-write-wins: any complete payload is fine,
                # a partial/corrupt one is not
                if got is not None and (
                    set(got) != {"tag", "data"}
                    or got["data"] != list(range(50))
                ):
                    torn.append(got)

        threads = [
            threading.Thread(target=_worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not torn
        final = store.get(key)
        assert final is not None and final["data"] == list(range(50))

    def test_distinct_keys_all_land(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        n_threads, per_thread = 8, 25

        def _worker(tid):
            for i in range(per_thread):
                store.put(f"cp-{tid:02d}{i:03d}" + "x" * 59, _payload(i))

        threads = [
            threading.Thread(target=_worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.entries()) == n_threads * per_thread
        assert store.stats.puts == n_threads * per_thread

    def test_counter_increments_not_lost(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "cp-" + "b" * 64
        store.put(key, _payload("x"))
        n_threads, n_gets = 8, 50

        def _reader():
            for _ in range(n_gets):
                store.get(key)
                store.get("cp-missing" + "c" * 54)

        threads = [threading.Thread(target=_reader) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.stats.hits == n_threads * n_gets
        assert store.stats.misses == n_threads * n_gets

    def test_concurrent_eviction_and_puts_stay_within_cap(self, tmp_path):
        # 180 objects of ~200 bytes each: the cap keeps about half
        cap = 20_000
        store = ArtifactStore(str(tmp_path), max_bytes=cap)

        def _writer(tid):
            for i in range(30):
                store.put(
                    f"cp-ev{tid}{i:03d}" + "y" * 58, _payload(i, size=100)
                )
                store.evict()

        threads = [
            threading.Thread(target=_writer, args=(t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.evict()
        assert store.total_bytes() <= cap
        assert store.stats.evictions > 0
        # whatever survived eviction must still decode
        import os

        for path, _, _ in store.entries():
            key = os.path.basename(path)[: -len(".json.gz")]
            assert store.get(key) is not None


@pytest.mark.parametrize("leaver", ["t0", "t1"])
def test_overlapping_loads_leave_the_collector_enabled(tmp_path, leaver):
    """Two threads inside ``load`` at once share the collector pause:
    whichever leaves first (``leaver``; t0 starts first) leaves it off
    for the other, and the last one out turns it back on."""
    was = gc.isenabled()
    gc.enable()
    try:
        store = ArtifactStore(str(tmp_path))
        store.put("k1", {"a": 1})
        both_in = threading.Barrier(2, timeout=10)
        release = threading.Event()
        inside = []

        def decoder(payload):
            inside.append(gc.isenabled())
            both_in.wait()
            if threading.current_thread().name != leaver:
                assert release.wait(10)
            return payload["a"]

        threads = {
            name: threading.Thread(
                target=store.load, args=("k1", decoder), name=name
            )
            for name in ("t0", "t1")
        }
        for t in threads.values():
            t.start()
        early = threads.pop(leaver)
        (late,) = threads.values()
        early.join(10)
        assert not early.is_alive()
        assert not gc.isenabled()  # the other load is still decoding
        release.set()
        late.join(10)
        assert not late.is_alive()
        assert inside == [False, False]
        assert gc.isenabled()
    finally:
        if not was:
            gc.disable()
