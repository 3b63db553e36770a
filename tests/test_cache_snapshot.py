"""Snapshot/restore of :class:`PlannerCaches`.

The on-disk format re-keys weak profile references by content
fingerprint, so a snapshot taken in one process restores onto a
*freshly re-profiled* model in another.  These tests cover the
round trip (counts, warm hits, identical plans), the subset/skip
semantics, and rejection of unknown versions and foreign files.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.core.caches import SNAPSHOT_MAGIC
from repro.errors import SnapshotError
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler

OPTIONS = PlannerOptions(group_sizes=(2,), micro_batch_counts=(1, 2, 4))
BATCHES = (32, 64)


def _warm_sweep(caches, profile, model, cluster):
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=OPTIONS, caches=caches
    )
    return {b: planner.plan(b).plan for b in BATCHES}


def test_snapshot_round_trip_onto_fresh_profile(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(2)
    profile = Profiler(cluster).profile(model)

    warm = PlannerCaches()
    plans = _warm_sweep(warm, profile, model, cluster)
    path = tmp_path / "caches.snap"
    written = warm.snapshot(path)
    assert written["chains"] > 0 and written["prefixes"] > 0
    assert written["timelines"] > 0

    # Fresh process simulation: new caches, freshly re-profiled model.
    fresh_profile = Profiler(cluster).profile(model)
    assert fresh_profile is not profile
    assert fresh_profile.fingerprint() == profile.fingerprint()
    cold = PlannerCaches()
    restored = cold.load(path, [fresh_profile])
    assert restored["chains"] == written["chains"]
    assert restored["prefixes"] == written["prefixes"]
    assert restored["timelines"] == written["timelines"]
    assert restored["skipped"] == 0

    replay = _warm_sweep(cold, fresh_profile, model, cluster)
    assert replay == plans, "snapshot-warmed plans must be bit-identical"
    stats = cold.stats()
    assert stats.store("chains").hits > 0
    assert stats.store("timelines").hits > 0
    assert stats.store("timelines").misses == 0, (
        "every simulation should replay from the restored memo"
    )


def test_snapshot_skips_unknown_profiles(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(2)
    profile = Profiler(cluster).profile(model)
    warm = PlannerCaches()
    _warm_sweep(warm, profile, model, cluster)
    path = tmp_path / "caches.snap"
    written = warm.snapshot(path, include_timelines=False)

    other = PlannerCaches()
    counts = other.load(path, [])  # no live profiles at all
    assert counts["skipped"] >= written["chains"] + written["prefixes"]
    assert counts["chains"] == 0 and other.prefixes.entry_count() == 0


def test_snapshot_rejects_unknown_version(tmp_path):
    """A future version, and version 1: its table and fill-shape keys
    carry slots the current keys no longer have, so its entries would
    load but never hit."""
    for version in (999, 1):
        path = tmp_path / f"v{version}.snap"
        with open(path, "wb") as fh:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": version, "stores": {}},
                fh,
            )
        with pytest.raises(SnapshotError, match=f"version {version}"):
            PlannerCaches().load(path, [])


def test_snapshot_rejects_foreign_files(tmp_path):
    not_a_snapshot = tmp_path / "other.pkl"
    with open(not_a_snapshot, "wb") as fh:
        pickle.dump({"magic": "something-else"}, fh)
    with pytest.raises(SnapshotError, match="bad magic"):
        PlannerCaches().load(not_a_snapshot, [])

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\x00\x01\x02 this is not a pickle")
    with pytest.raises(SnapshotError, match="cannot read"):
        PlannerCaches().load(garbage, [])

    with pytest.raises(SnapshotError, match="cannot read"):
        PlannerCaches().load(tmp_path / "does-not-exist", [])
