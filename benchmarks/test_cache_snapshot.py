"""Snapshot-seeded warm planning: the >= 5x gate and its counter twins.

All gates run the SD heterogeneous sweep of ``test_het_replication.py``
(D=6, S<=4, filling off — the memo-covered work):

* **in-process**: snapshot a warmed :class:`PlannerCaches`, restore it
  into a *fresh* instance keyed onto a *freshly re-profiled* model (the
  cross-process path, minus the process), and re-sweep: bit-identical
  plans, no miss added to the ``het`` tables or the ``timelines`` and
  no ``simulate`` call; the ``slow`` twin also requires >= 5x faster
  than cold;
* **cross-process**: a ``ProcessPoolExecutor`` worker seeded from the
  snapshot file answers the same request stream with identical
  responses, again with no ``het`` or ``timelines`` miss and no
  ``simulate`` call — proving the path a process-pool worker takes when
  it loads a ``repro snapshot`` file with ``PlannerCaches.load``, end
  to end; the ``slow`` twin also requires >= 5x faster than an unseeded
  worker.

The counter gates are deterministic and light enough for the fast CI
suite (``--benchmark-disable``); the wall-clock ratios are ``slow``.
A warm sweep still partitions (from the restored tables), memory-checks
and floors every configuration, so the ratio narrows as cold planning
gets cheaper; the counters do not move.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.core.planner as planner_mod
from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler

OPTIONS = PlannerOptions(
    max_stages=4,
    micro_batch_counts=(1, 2, 3, 4, 6, 8),
    group_sizes=(6,),
    heterogeneous_replication=True,
    enable_bubble_filling=False,
)
BATCHES = (96, 192)


def _sweep(caches, profile, model, cluster):
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=OPTIONS, caches=caches
    )
    return {b: planner.plan(b).plan for b in BATCHES}


def _misses(caches):
    """Misses of the stores a snapshot restores and the sweep reads."""
    stats = caches.stats()
    return {name: stats.store(name).misses for name in ("het", "timelines")}


def _memo_served_sweep(snapshot_path):
    """A sweep on fresh caches restored from the snapshot and a freshly
    re-profiled model: its plans, the misses it added to ``het`` and
    ``timelines``, and its ``simulate`` calls.  Runs in the test process
    or in a worker."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches()
    caches.load(snapshot_path, [profile])
    calls = [0]
    simulate = planner_mod.simulate

    def counting(*args, **kwargs):
        calls[0] += 1
        return simulate(*args, **kwargs)

    before = _misses(caches)
    planner_mod.simulate = counting
    try:
        plans = _sweep(caches, profile, model, cluster)
    finally:
        planner_mod.simulate = simulate
    after = _misses(caches)
    added = {name: after[name] - before[name] for name in after}
    return plans, added, calls[0]


def _write_snapshot(path):
    """Sweep on warm caches, snapshot them to ``path``; the plans."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    # The profile must stay alive until the snapshot is written: the
    # DP tables are weak-keyed by it.
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches()
    plans = _sweep(caches, profile, model, cluster)
    written = caches.snapshot(path)
    assert written["het"] > 0 and written["timelines"] > 0, written
    return plans


def test_snapshot_warm_sweep_is_memo_served(tmp_path):
    path = tmp_path / "warm.snap"
    baseline = _write_snapshot(path)
    plans, added, simulate_calls = _memo_served_sweep(path)
    assert plans == baseline, "snapshot-warmed plans must be bit-identical"
    assert added == {"het": 0, "timelines": 0}
    assert simulate_calls == 0


def test_process_pool_worker_is_memo_served(tmp_path):
    path = str(tmp_path / "warm.snap")
    baseline = _write_snapshot(path)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        plans, added, simulate_calls = pool.submit(
            _memo_served_sweep, path
        ).result(timeout=300)
    assert plans == baseline, "seeded worker must plan bit-identically"
    assert added == {"het": 0, "timelines": 0}
    assert simulate_calls == 0


@pytest.mark.slow
def test_snapshot_warm_sweep_5x(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    path = tmp_path / "warm.snap"

    # The profile must stay alive until the snapshot is written: the
    # DP tables are weak-keyed by it.
    src_profile = Profiler(cluster).profile(model)
    warm_src = PlannerCaches()
    baseline = _sweep(warm_src, src_profile, model, cluster)
    written = warm_src.snapshot(path)
    assert written["het"] > 0 and written["timelines"] > 0, written
    del src_profile

    def measure():
        # Cold: fresh caches, fresh profile (same content fingerprint).
        profile = Profiler(cluster).profile(model)
        cold_caches = PlannerCaches()
        t0 = time.perf_counter()
        cold_plans = _sweep(cold_caches, profile, model, cluster)
        cold = time.perf_counter() - t0
        # Warm: fresh caches + snapshot restore onto yet another fresh
        # profile.  Best of three, as in the sibling memo benchmarks.
        warm = float("inf")
        for _ in range(3):
            profile = Profiler(cluster).profile(model)
            warm_caches = PlannerCaches()
            warm_caches.load(path, [profile])
            t0 = time.perf_counter()
            warm_plans = _sweep(warm_caches, profile, model, cluster)
            warm = min(warm, time.perf_counter() - t0)
            assert warm_plans == cold_plans == baseline, (
                "snapshot-warmed plans must be bit-identical"
            )
            assert warm_caches.stats().store("timelines").misses == 0
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"


def _worker_sweep(snapshot_path):
    """Runs inside a worker process: build the planner (profiling and
    snapshot restore excluded from the timing), then sweep."""
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches()
    if snapshot_path is not None:
        caches.load(snapshot_path, [profile])
    t0 = time.perf_counter()
    plans = _sweep(caches, profile, model, cluster)
    elapsed = time.perf_counter() - t0
    report = {
        b: (p.config_label, p.throughput, p.iteration_ms)
        for b, p in plans.items()
    }
    return report, elapsed, caches.stats().store("timelines").hits


@pytest.mark.slow
def test_process_pool_worker_replays_snapshot_warm(tmp_path):
    model = stable_diffusion_v2_1()
    cluster = single_node(6)
    path = str(tmp_path / "warm.snap")
    src_profile = Profiler(cluster).profile(model)
    warm_src = PlannerCaches()
    _sweep(warm_src, src_profile, model, cluster)
    written = warm_src.snapshot(path)
    assert written["het"] > 0 and written["timelines"] > 0, written
    del src_profile

    def measure():
        # One worker per measurement so no in-process state carries
        # over; the cold worker proves the baseline, the seeded worker
        # the snapshot-loading startup path.
        with ProcessPoolExecutor(max_workers=1) as pool:
            cold_report, cold, _ = pool.submit(_worker_sweep, None).result()
        with ProcessPoolExecutor(max_workers=1) as pool:
            warm = float("inf")
            for _ in range(3):
                warm_report, elapsed, tl_hits = pool.submit(
                    _worker_sweep, path
                ).result()
                warm = min(warm, elapsed)
                assert warm_report == cold_report, (
                    "seeded worker must report identically to a cold one"
                )
                assert tl_hits > 0, "worker never hit the restored memo"
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5 * warm:
            break
    assert cold >= 5 * warm, f"cold={cold:.3f}s warm={warm:.3f}s (< 5x)"
