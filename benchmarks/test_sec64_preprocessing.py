"""§6.4: pre-processing overhead — profiling, model partitioning and
bubble filling each complete within the paper's budgets.

Paper: profiling ~55 s (SD v2.1 on 16 GPUs at batch 512, amortised over
the cluster); partitioning ~0.5 s; bubble filling < 1 s.  Partitioning
and filling below measure *our* actual algorithm wall-clock on one CPU,
which is the paper's own accounting for the filling step.  The
wall-clock budgets are a ``slow`` test; the fast one pins the work the
same pass does — DP table builds and the fill's counts — on a private
``PlannerCaches``, so a machine's load cannot decide it.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import p4de_cluster
from repro.core import (
    DiffusionPipePlanner,
    PlannerCaches,
    PlannerOptions,
    extract_bubbles,
    BubbleFiller,
)
from repro.harness import ExperimentReport
from repro.profiling import Profiler
from repro.schedule import build_1f1b, simulate


def _preprocess(model, cluster, caches):
    """One full front-end pass on ``caches``; returns (wall-times,
    profiling estimate, fill report)."""
    t0 = time.perf_counter()
    profiler = Profiler(cluster)
    profile = profiler.profile(model)
    profiling_wall = time.perf_counter() - t0
    profiling_sim = profiler.report(model).wall_time_ms / 1e3  # seconds

    planner = DiffusionPipePlanner(
        model, cluster, profile,
        options=PlannerOptions(max_stages=4, group_sizes=(2, 4, 8),
                               micro_batch_counts=(1, 2, 4, 8)),
        caches=caches,
    )
    t0 = time.perf_counter()
    partition = planner._partition(
        512 / (cluster.world_size // 8), 8, 4, 4, heterogeneous=False
    )
    partition_wall = time.perf_counter() - t0

    stages, _, weights = planner._build_args(partition, sc=False)
    timeline = simulate(build_1f1b(stages, 4), len(weights), weights)
    bubbles = extract_bubbles(timeline)
    filler = BubbleFiller(profile, model, partition.batch_per_group,
                          caches=caches)
    t0 = time.perf_counter()
    fill = filler.fill(bubbles, leftover_devices=partition.group_size)
    filling_wall = time.perf_counter() - t0
    return profiling_wall, profiling_sim, partition_wall, filling_wall, fill


def test_sec64_preprocessing(sd_vanilla):
    """The pass's work, counted: one 1F1B DP table for the partition
    (the ``het`` store's misses) and a complete fill of 53 items into
    19 bubbles with no candidate dropped."""
    cluster = p4de_cluster(2)  # the paper's 2-machine profiling setup
    caches = PlannerCaches()
    _, prof_sim, _, _, fill = _preprocess(sd_vanilla, cluster, caches)

    # The simulated cluster-parallel profiling run lands in the paper's
    # order of magnitude (the paper profiles up to batch 512; our grid
    # stops at 128, hence the smaller absolute figure).
    assert 1.0 < prof_sim < 300.0
    assert caches.stats().store("het").misses == 1
    assert (len(fill.items), fill.num_bubbles, fill.complete,
            fill.candidates_dropped) == (53, 19, True, 0)


@pytest.mark.slow
def test_sec64_preprocessing_within_paper_budgets(benchmark, sd_vanilla):
    cluster = p4de_cluster(2)
    prof_wall, prof_sim, part_wall, fill_wall, _ = benchmark.pedantic(
        _preprocess, args=(sd_vanilla, cluster, PlannerCaches()),
        rounds=1, iterations=1,
    )
    report = ExperimentReport("Sec 6.4 - pre-processing overhead")
    report.add("profiling (simulated cluster wall)", "seconds", 55.0, round(prof_sim, 1))
    report.add("partitioning (actual)", "seconds", 0.5, round(part_wall, 3))
    report.add("bubble filling (actual)", "seconds", 1.0, round(fill_wall, 3))
    print()
    print(report.to_table())
    print(f"(profile-database construction itself took {prof_wall:.2f}s)")

    # The real algorithm costs stay within the paper's budgets.
    assert part_wall < 5.0
    assert fill_wall < 1.0
