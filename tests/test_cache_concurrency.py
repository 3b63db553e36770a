"""Concurrency and lifetime guarantees of :class:`PlannerCaches`.

* a thread pool hammering one shared instance raises nothing, produces
  plans bit-identical to a serial run, and leaves every store within
  its bound;
* dropping a :class:`PlannerCaches` instance frees its timelines — the
  memo must not leak entries (or Timeline objects) into the process
  default instance.
"""

from __future__ import annotations

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.core.caches import default_caches
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler

BATCHES = (32, 64, 96)
OPTIONS = PlannerOptions(group_sizes=(2, 4), micro_batch_counts=(1, 2, 4))


def _sweep(model, cluster, profile, caches):
    """Fresh planner on the shared caches; plans for every batch."""
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=OPTIONS, caches=caches
    )
    return {b: planner.plan(b).plan for b in BATCHES}


def test_shared_caches_thread_pool_smoke():
    model = stable_diffusion_v2_1()
    cluster = single_node(4)
    profile = Profiler(cluster).profile(model)

    serial = _sweep(model, cluster, profile, PlannerCaches())

    shared = PlannerCaches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(_sweep, model, cluster, profile, shared)
            for _ in range(16)
        ]
        results = [f.result() for f in futures]  # raises on any exception

    for result in results:
        assert result == serial, "concurrent plans must match serial plans"

    # Every store stayed within its construction-time bound.
    for stats in shared.stats().stores:
        assert stats.entries >= 0
    assert len(shared.timelines) <= shared.timelines.max_entries
    assert len(shared.partition) <= shared.partition.max_entries
    assert len(shared.evals) <= shared.evals.max_entries
    assert shared.prefixes.entry_count(profile) <= 8192
    # The work actually went through the shared instance: repeat sweeps
    # are served by ``evals`` (simulate and simulate-and-fill memos),
    # which sits in front of the timeline memo the first sweep filled.
    assert shared.stats().store("evals").hits > 0
    assert shared.stats().store("timelines").entries > 0


def test_dropping_planner_caches_frees_timelines():
    model = stable_diffusion_v2_1()
    cluster = single_node(2)
    profile = Profiler(cluster).profile(model)

    before = len(default_caches().timelines)

    caches = PlannerCaches()
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=OPTIONS, caches=caches
    )
    planner.plan(64)
    items = caches.timelines.items()
    assert items, "the sweep must have memoised timelines"
    timeline_refs = [weakref.ref(value) for _, value in items]
    caches_ref = weakref.ref(caches)

    # Nothing leaked into the process-wide default instance.
    assert len(default_caches().timelines) == before

    del planner, caches, items
    gc.collect()
    assert caches_ref() is None, "PlannerCaches instance must be collectable"
    alive = [r for r in timeline_refs if r() is not None]
    assert not alive, (
        f"{len(alive)}/{len(timeline_refs)} timelines survived their "
        "owning PlannerCaches — the memo is leaking"
    )
