"""Ablations of this implementation's own design choices (DESIGN.md §5).

Not a paper artifact — these benches justify internal decisions:

1. homogeneous stage replication (paper footnote 2) vs the general
   heterogeneous DP;
2. the CDM partitioner's cut-step coarsening;
3. the 10 ms minimum-bubble threshold (paper footnote 3);
4. the partial-batch size menu (paper §5).

The timed ablation is ``slow``.  Its cut-step claim has a counter twin
for the fast suite: the geometry-plan batches each cut step's CDM
lattice enumerates, and the same bound on the coarse objective.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.cluster import single_node
from repro.core import (
    CDMPartitionContext,
    DiffusionPipePlanner,
    PartitionContext,
    PlannerCaches,
    PlannerOptions,
    partition_backbone,
    partition_cdm,
)
from repro.harness import format_table
from repro.models.zoo import cdm_lsun, stable_diffusion_v2_1
from repro.profiling import Profiler


def _setup():
    cluster = single_node(8)
    sd = stable_diffusion_v2_1(self_conditioning=False)
    lsun = cdm_lsun()
    return (
        cluster,
        sd,
        Profiler(cluster).profile(sd),
        lsun,
        Profiler(cluster).profile(lsun),
    )


def _run_all():
    cluster, sd, sd_prof, lsun, lsun_prof = _setup()
    results: dict[str, tuple[float, float]] = {}

    # 1. Homogeneous vs heterogeneous replication on SD, S=2, D=8.
    planner = DiffusionPipePlanner(
        sd, cluster, sd_prof,
        options=PlannerOptions(group_sizes=(2, 4, 8), check_memory=False),
    )
    ctx = PartitionContext(
        profile=sd_prof, component="unet", batch_per_group=256,
        num_micro_batches=4, p2p=planner._p2p_costs(8),
        allreduce=planner._allreduce_costs(8, 4),
    )
    t0 = time.perf_counter()
    hom = partition_backbone(ctx, 2, 8)
    t_hom = time.perf_counter() - t0
    t0 = time.perf_counter()
    het = partition_backbone(ctx, 2, 8, heterogeneous=True)
    t_het = time.perf_counter() - t0
    results["replication hom"] = (hom.t_max_ms, t_hom)
    results["replication het"] = (het.t_max_ms, t_het)

    # 2. CDM cut-step coarsening: quality vs runtime.
    mk = lambda comp: PartitionContext(
        profile=lsun_prof, component=comp, batch_per_group=64,
        num_micro_batches=2, p2p=planner._p2p_costs(2),
        allreduce=planner._allreduce_costs(2, 1),
    )
    cdm_ctx = CDMPartitionContext(down=mk("base_64"), up=mk("sr_128"))
    for step in (1, 2, 4):
        t0 = time.perf_counter()
        plan = partition_cdm(cdm_ctx, 2, 2, cut_step=step)
        results[f"cdm cut_step={step}"] = (
            plan.t_max_ms, time.perf_counter() - t0
        )

    # 3/4. Planner-level: bubble threshold and partial-batch menu.
    base = PlannerOptions(group_sizes=(2, 4, 8))
    for name, opts in {
        "min_bubble=10ms (paper)": base,
        "min_bubble=50ms": replace(base, min_bubble_ms=50.0),
        "menu=paper": base,
        "menu={32,64}": replace(base, partial_batch_menu=(32, 64)),
    }.items():
        p = DiffusionPipePlanner(sd, cluster, sd_prof, options=opts)
        results[name] = (p.plan(256).plan.throughput, 0.0)
    return results


@pytest.mark.slow
def test_ablation_design_choices(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = [
        [k, f"{v[0]:.1f}", f"{v[1] * 1e3:.1f} ms"] for k, v in results.items()
    ]
    print()
    print(format_table(
        ["design choice", "objective / samples/s", "solve time"], rows,
        title="Implementation design-choice ablations",
    ))
    # Heterogeneous replication can only improve the bound, at higher cost.
    assert results["replication het"][0] <= results["replication hom"][0] + 1e-6
    # Coarser CDM cuts trade at most ~10 % bound quality for speed here.
    exact = results["cdm cut_step=1"]
    coarse = results["cdm cut_step=4"]
    assert coarse[0] <= exact[0] * 1.10
    assert coarse[1] < exact[1]
    # A richer partial-batch menu never hurts throughput.
    assert results["menu=paper"][0] >= results["menu={32,64}"][0] * 0.999
    # Ignoring small bubbles costs little (they are small by definition).
    assert results["min_bubble=50ms"][0] >= results["min_bubble=10ms (paper)"][0] * 0.9


def test_cut_step_coarsening_counts_lattice_batches():
    """Counter twin of the slow test's ``coarse[1] < exact[1]``: on the
    same CDM lattice (cdm-lsun, S = 2, D = 2, b = 64, M = 2) each
    coarser cut step enumerates fewer geometry-plan batches, the
    ``(parent, down cut, replicas, up cut)`` transitions a table build
    evaluates.
    Each step plans on private caches, whose ``kernel_plans`` store
    then holds exactly that step's plan.  The coarse objective keeps
    the slow test's 10% bound."""
    cluster = single_node(8)
    lsun = cdm_lsun()
    profile = Profiler(cluster).profile(lsun)
    planner = DiffusionPipePlanner(lsun, cluster, profile, caches=PlannerCaches())
    mk = lambda comp: PartitionContext(
        profile=profile, component=comp, batch_per_group=64,
        num_micro_batches=2, p2p=planner._p2p_costs(2),
        allreduce=planner._allreduce_costs(2, 1),
    )
    cdm_ctx = CDMPartitionContext(down=mk("base_64"), up=mk("sr_128"))
    batches = {}
    t_max = {}
    for step in (1, 2, 4):
        caches = PlannerCaches()
        t_max[step] = partition_cdm(
            cdm_ctx, 2, 2, cut_step=step, caches=caches
        ).t_max_ms
        ((_, plan),) = caches.kernel_plans.items()
        batches[step] = sum(len(stage["P"]) for stage in plan)
    assert batches == {1: 1250, 2: 288, 4: 72}
    assert t_max[4] <= t_max[1] * 1.10
