"""Snapshot/restore of :class:`PlannerCaches`.

The on-disk format re-keys weak profile references by content
fingerprint, so a snapshot taken in one process restores onto a
*freshly re-profiled* model in another.  These tests cover the
round trip (counts, warm hits, identical plans), the subset/skip
semantics, rejection of unknown versions and foreign files, and the
``repro snapshot`` file replayed in a process with another hash seed.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
    assert written["het"] > 0 and written["prefixes"] > 0
    assert written["timelines"] > 0

    # Fresh process simulation: new caches, freshly re-profiled model.
    fresh_profile = Profiler(cluster).profile(model)
    assert fresh_profile is not profile
    assert fresh_profile.fingerprint() == profile.fingerprint()
    cold = PlannerCaches()
    restored = cold.load(path, [fresh_profile])
    assert restored["het"] == written["het"]
    assert restored["prefixes"] == written["prefixes"]
    assert restored["timelines"] == written["timelines"]
    assert restored["skipped"] == 0

    replay = _warm_sweep(cold, fresh_profile, model, cluster)
    assert replay == plans, "snapshot-warmed plans must be bit-identical"
    stats = cold.stats()
    assert stats.store("het").hits > 0
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
    written = warm.snapshot(path)

    other = PlannerCaches()
    counts = other.load(path, [])  # no live profiles at all
    assert counts["skipped"] >= written["het"] + written["prefixes"]
    assert counts["het"] == 0 and other.prefixes.entry_count() == 0


def test_snapshot_bytes_depend_only_on_the_entries(tmp_path):
    """Two caches with equal entries write byte-identical files, even
    when one's keys share a sub-tuple across entries and the other's
    hold equal copies: each entry is pickled with a memo of its own.
    One pickle memo over the whole file wrote the shared sub-tuple
    once and referred back to it."""
    shared = ("stage", 1.5, 2.5)
    files = []
    for name, subs in (
        ("shared", (shared, shared)),
        ("copies", (tuple(list(shared)), tuple(list(shared)))),
    ):
        caches = PlannerCaches()
        for flag, sub in enumerate(subs):
            caches.timelines.put((sub, bool(flag)), ("timeline", flag))
        path = tmp_path / f"{name}.snap"
        assert caches.snapshot(path)["timelines"] == 2
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_snapshot_rejects_unknown_version(tmp_path):
    """A future version, and versions 1 to 5: their table and
    fill-shape keys have layouts the current keys no longer have (the
    ``cdm`` keys of version 3 still carry a frontier-cap slot, and the
    free-table keys of version 4 wrap the sync model in an
    ``"ar-resolved"`` tag), so their entries would load but never hit,
    and version 5 pickled the whole payload at once instead of each
    entry on its own."""
    for version in (999, 1, 2, 3, 4, 5):
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


# Re-profiles sd on 2 GPUs in a fresh interpreter, restores the snapshot
# named by argv[1] (if any) into a fresh PlannerCaches, plans the
# batches `repro snapshot` warmed, and prints the plans' bit patterns.
_REPLAY = """
import json, sys
from repro.cli import _build_cluster, _build_model, _group_sizes
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.profiling import Profiler

model = _build_model("sd", None)
cluster = _build_cluster(2)
profile = Profiler(cluster).profile(model)
caches = PlannerCaches()
restored = caches.load(sys.argv[1], [profile]) if len(sys.argv) > 1 else {}
options = PlannerOptions(
    group_sizes=_group_sizes(cluster), fill_strategy="lookahead"
)
planner = DiffusionPipePlanner(
    model, cluster, profile, options=options, caches=caches
)
plans = {b: planner.plan(b).plan for b in (32, 64)}
stats = caches.stats()
print(json.dumps({
    "restored": restored,
    "plans": {
        str(b): [p.throughput.hex(), p.iteration_ms.hex()]
        for b, p in plans.items()
    },
    "misses": {n: stats.store(n).misses for n in ("het", "timelines")},
}))
"""


def _python(args, hash_seed):
    """Run ``python *args`` with the package importable and a pinned
    ``PYTHONHASHSEED``; return its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_snapshot_replays_under_another_hash_seed(tmp_path):
    """A file written by ``repro snapshot`` under one hash seed restores
    under another: string-keyed entries must not depend on set or dict
    order, and every DP table and simulation replays from the restored
    memos."""
    path = str(tmp_path / "warm.snap")
    out = _python(
        ["-m", "repro", "snapshot", "--model", "sd", "--gpus", "2",
         "--fill-strategy", "lookahead", "--batches", "32", "64",
         "--out", path],
        hash_seed=1,
    )
    assert "cache entries written" in out
    warm = json.loads(_python(["-c", _REPLAY, path], hash_seed=2))
    cold = json.loads(_python(["-c", _REPLAY], hash_seed=3))
    assert warm["restored"]["skipped"] == 0
    assert warm["restored"]["fills.finals"] > 0
    assert warm["plans"] == cold["plans"]
    assert warm["misses"] == {"het": 0, "timelines": 0}
    assert cold["misses"]["het"] > 0 and cold["misses"]["timelines"] > 0
