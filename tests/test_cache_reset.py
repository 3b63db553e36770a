"""Epoch reset of the float-keyed interpolation memos.

`ProfileDB._stage_cache` (stage sums and per-batch prefix sums) and
each `LayerProfile`'s per-batch forward/backward memos are plain dicts on the hottest interpolation
path — deliberately without per-hit LRU bookkeeping.  A long sweep
over unbounded distinct batch values grows them without bound;
`ProfileDB.reset_caches()` (wired into `PlannerCaches.clear`)
is the cheap generation reset that keeps them bounded.
"""

from repro.cluster.collectives import CommCosts
from repro.core import BubbleFiller, PlannerCaches
from repro.core.bubbles import Bubble
from repro.core.partition import PartitionContext, StageCosts
from tests.conftest import make_synthetic_db


def _touch(db, batch):
    db.stage_fwd_ms("backbone", 0, 8, batch)
    db.stage_bwd_ms("backbone", 0, 8, batch)
    db.fwd_ms("encoder", 0, batch)


def test_profile_reset_caches_empties_all_memos():
    db = make_synthetic_db()
    for b in range(1, 50):
        _touch(db, float(b))
    layer = db.layer("backbone", 0)
    assert len(db._stage_cache) > 0
    assert len(layer._fwd_cache) > 0
    assert len(layer._bwd_cache) > 0
    db.reset_caches()
    assert len(db._stage_cache) == 0
    for comp in db.components():
        for lp in db.layers(comp):
            assert len(lp._fwd_cache) == 0
            assert len(lp._bwd_cache) == 0
    # Values recompute identically after the reset.
    before = db.stage_fwd_ms("backbone", 0, 8, 17.0)
    db.reset_caches()
    assert db.stage_fwd_ms("backbone", 0, 8, 17.0) == before


def test_long_lived_sweep_stays_bounded_with_epoch_resets():
    """Sweeping distinct batch values grows the memos monotonically;
    a periodic PlannerCaches.clear() keeps the high-water mark at one
    epoch's worth instead of the whole history."""
    db = make_synthetic_db()
    caches = PlannerCaches()
    epoch_size = 100
    high_water = 0
    for epoch in range(4):
        for i in range(epoch_size):
            _touch(db, 1.0 + epoch * epoch_size + i)
        high_water = max(high_water, len(db._stage_cache))
        caches.clear([db])
        assert len(db._stage_cache) == 0
    # Without resets four epochs would have accumulated 4x the entries.
    assert high_water <= 2 * epoch_size + 1


def test_planner_caches_clear_also_drops_prefix_cache():
    from repro.models.zoo import uniform_model
    from repro.cluster import single_node
    from repro.profiling import Profiler

    model = uniform_model()
    profile = Profiler(single_node(8)).profile(model)
    caches = PlannerCaches()
    filler = BubbleFiller(profile, model, batch=64, caches=caches)
    filler.fill(
        [Bubble(start=0.0, end=25.0, devices=(0,), weight=1)],
        leftover_devices=2,
    )
    assert caches.prefixes.entry_count(profile) > 0
    caches.evals.put(("k",), ("v",))
    caches.partition.put(("k",), "v")
    caches.comm.put("k", "v")
    caches.clear([profile])
    assert caches.prefixes.entry_count(profile) == 0
    assert not len(caches.evals)
    assert not len(caches.partition)
    assert not len(caches.comm)


def test_reset_caches_empties_the_prefix_memo():
    """Stage-cost evaluators at one local batch share the profile's
    prefix sums (one memo entry per component and batch), and
    ``PlannerCaches.clear`` drops the entry with the other stage memos,
    so the next cold plan recomputes it — to equal values."""
    db = make_synthetic_db()
    link = CommCosts(bandwidth=1e9, latency=0.01)
    ctx = PartitionContext(
        profile=db, component="backbone", batch_per_group=64.0,
        num_micro_batches=4, p2p=link, allreduce=link,
    )
    first = StageCosts(ctx, 2)
    assert StageCosts(ctx, 2)._fwd is first._fwd
    assert StageCosts(ctx, 4)._fwd is not first._fwd
    prefix_keys = lambda: sorted(  # noqa: E731
        k[2] for k in db._stage_cache if k[0] == "p"
    )
    assert prefix_keys() == [4.0, 8.0]
    PlannerCaches.cold([db])
    assert prefix_keys() == []
    again = StageCosts(ctx, 2)
    assert again._fwd is not first._fwd
    assert (again._fwd, again._bwd, again._bww, again._grad) == (
        first._fwd, first._bwd, first._bww, first._grad,
    )


def test_reset_caches_empties_the_compute_slab_memo():
    """The CDM floor's compute slabs are memoised on the profile by
    (component, batch, window factor), read-only, and dropped by
    ``PlannerCaches.clear`` with the other stage memos."""
    import numpy as np

    db = make_synthetic_db()
    slab = db.stage_compute_slab("backbone", 8.0, 0.5)
    assert db.stage_compute_slab("backbone", 8.0, 0.5) is slab
    assert db.stage_compute_slab("backbone", 8.0, 1.0) is not slab
    assert not slab.flags.writeable
    fwd, bwd, _, _ = db.stage_prefix_sums("backbone", 8.0)
    assert slab[2, 5] == ((fwd[5] - fwd[2]) + (bwd[5] - bwd[2])) / 0.5
    PlannerCaches.cold([db])
    again = db.stage_compute_slab("backbone", 8.0, 0.5)
    assert again is not slab and np.array_equal(again, slab)


def test_reset_caches_empties_the_path_column_memos():
    """The CDM floor's send and sync columns are memoised on the profile
    by everything they read (the batch, the p2p and all-reduce
    constants and the link scale included), read-only, equal to
    ``StageCosts``' scalar prices, and dropped by
    ``PlannerCaches.clear`` with the other stage memos."""
    import numpy as np

    db = make_synthetic_db()
    p2p, ar = CommCosts(5e8, 0.01), CommCosts(2e8, 0.02)
    send = db.stage_send_column("backbone", 8.0, p2p, 4.0)
    sync = db.stage_sync_column("backbone", 8.0, ar)
    assert db.stage_send_column("backbone", 8.0, p2p, 4.0) is send
    assert db.stage_send_column("backbone", 8.0, p2p, 2.0) is not send
    assert db.stage_send_column("backbone", 4.0, p2p, 4.0) is not send
    other_p2p = CommCosts(5e8, 0.02)
    assert db.stage_send_column("backbone", 8.0, other_p2p, 4.0) is not send
    assert db.stage_sync_column("backbone", 8.0, ar) is sync
    assert db.stage_sync_column("backbone", 4.0, ar) is not sync
    assert db.stage_sync_column("backbone", 8.0, p2p) is not sync
    assert not send.flags.writeable and not sync.flags.writeable
    ctx = PartitionContext(
        profile=db, component="backbone", batch_per_group=16.0,
        num_micro_batches=2, p2p=p2p, allreduce=ar,
    )
    costs = StageCosts(ctx, 1)
    assert costs.local_batch == 8.0
    for hi in range(1, len(send)):
        assert send[hi] == 4.0 * costs.send_ms(hi)
        assert sync[hi] == costs.sync_ms(0, hi)
    PlannerCaches.cold([db])
    again = db.stage_send_column("backbone", 8.0, p2p, 4.0)
    assert again is not send and np.array_equal(again, send)
    again = db.stage_sync_column("backbone", 8.0, ar)
    assert again is not sync and np.array_equal(again, sync)
