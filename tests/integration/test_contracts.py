"""Byte-identity and counted-work contracts over every workload.

``tests/fixtures/contracts.json`` pins, for each registered workload at
each clamp of :data:`CLAMPS`, the digests of a store-less cold
analysis's report and metrics JSON and its counted work
(``tests/fixtures/make_contracts.py`` regenerates it).  The first test
compares one cold run of each with the pin.  The second reuses those
runs and checks, computed rather than pinned, that every other way to
reach the same program renders the same: a stored run (a cold miss
that writes the store), a warm hit, and three twins -- uids offset,
uids permuted, functions reordered -- analyzed with the store and no
baseline, each a warm hit on the stored artifacts.  A permuted or
reordered twin is compared with its own cold run, since its documents
can differ from its original's; an offset keeps the uid order, so an
offset twin renders what its original renders.
"""

import json

import pytest

from repro.pipeline import analyze
from repro.store import ArtifactStore
from repro.workloads import all_workloads

from ..fixtures.make_contracts import CLAMPS, FIXTURE, clamp_key, contract_of
from ..twins import TWINS

WORKLOADS = sorted(all_workloads())


@pytest.fixture(scope="session")
def cold_runs():
    """(workload, clamp key) -> the contract of a store-less cold run."""
    reg = all_workloads()
    return {
        (name, clamp_key(clamp)): contract_of(analyze(reg[name](), clamp=clamp))
        for name in WORKLOADS
        for clamp in CLAMPS
    }


@pytest.fixture(scope="session")
def derived_runs(tmp_path_factory):
    """(workload, clamp key) -> {setting: (contract, was a cache hit)}
    for every setting that must equal the cold run; permuted and
    reordered twins carry their own cold run as ``<twin>-cold``."""
    reg = all_workloads()
    root = tmp_path_factory.mktemp("contracts")
    runs = {}
    for name in WORKLOADS:
        # one store per workload: "mm" aliases pb_gemm, and a shared
        # store would make its stored run a warm hit
        store = ArtifactStore(str(root / name))
        for clamp in CLAMPS:
            out = runs[(name, clamp_key(clamp))] = {}

            def run(setting, spec, store):
                result = analyze(spec, clamp=clamp, store=store)
                out[setting] = (contract_of(result), result.timings.cache_hit)

            run("stored", reg[name](), store)
            run("warm", reg[name](), store)
            for twin in ("offset7000", "permuted", "reordered"):
                run(twin, TWINS[twin](reg[name]()), store)
                if twin != "offset7000":
                    run(f"{twin}-cold", TWINS[twin](reg[name]()), None)
    return runs


def test_cold_runs_match_the_pinned_contracts(cold_runs):
    pinned = json.loads(FIXTURE.read_text())["workloads"]
    assert sorted(pinned) == WORKLOADS
    drifted = {
        key: (pinned[key[0]][key[1]], facts)
        for key, facts in cold_runs.items()
        if pinned[key[0]][key[1]] != facts
    }
    assert not drifted, drifted


def test_stored_warm_and_twin_runs_equal_cold(cold_runs, derived_runs):
    mismatched = []
    for key, settings in derived_runs.items():
        cold = cold_runs[key]
        for setting, (facts, hit) in settings.items():
            if setting.endswith("-cold"):
                continue
            # the first stored run misses; everything after it hits
            if hit != (setting != "stored"):
                mismatched.append((key, setting, "cache_hit", hit))
            want = settings.get(f"{setting}-cold", (cold, False))[0]
            if facts != want:
                mismatched.append((key, setting, facts, want))
    assert not mismatched, mismatched
