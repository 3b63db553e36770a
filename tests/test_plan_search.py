"""Bound-and-skip plan search: pruning never changes the chosen plan.

:meth:`DiffusionPipePlanner.plan` simulates every feasible (D, S, M),
bounds its throughput by ``samples / pipeline_ms`` and fills only the
configurations whose bound can still beat the incumbent.  Two
cross-layer invariants make that safe, and both are checked here
exactly — ``float.hex`` comparisons and plain ``>=``, no tolerance:

* **the bound is sound** — every candidate's ``samples / pipeline_ms
  * 1e3`` is at least its filled throughput, and equals the bound the
  search actually used;
* **pruning never changes the chosen plan** — ``plan(b)`` is the first
  maximum of the exhaustive :meth:`candidate_plans`, configuration,
  partition and timings alike.

A deterministic counter gate pins the saving itself: a cold 16-GPU SD
plan runs the bubble filler for the winning configuration only.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeviceSpec, p4de_cluster, single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.core.filling import BubbleFiller
from repro.models.zoo import (
    cascaded_model,
    stable_diffusion_v2_1,
    two_encoder_model,
    uniform_model,
)
from repro.profiling import Profiler

MODELS = {
    "uniform": uniform_model,
    "uniform-sc": lambda: uniform_model(self_conditioning=True),
    "two-encoder": two_encoder_model,
    "cascaded": cascaded_model,
}
#: device memory (bytes) of the small device: between the toy models'
#: smallest and largest per-device peaks, so some configurations OOM
SMALL_MEMORY = 3.82e7

@functools.cache
def _setup(model_name, devices, memory):
    """(model, cluster, profile), profiled once per combination."""
    spec = DeviceSpec(name="small", memory_bytes=memory) if memory else None
    cluster = single_node(devices, device_spec=spec)
    model = MODELS[model_name]()
    return model, cluster, Profiler(cluster).profile(model)


@st.composite
def search_case(draw):
    model_name = draw(st.sampled_from(sorted(MODELS)))
    devices = draw(st.sampled_from((4, 6, 8)))
    memory = draw(st.sampled_from((None, SMALL_MEMORY)))
    options = PlannerOptions(
        max_stages=4,
        micro_batch_counts=(1, 2, 3, 4),
        fill_strategy=draw(st.sampled_from(("greedy", "lookahead", "none"))),
        enable_bubble_filling=draw(st.booleans()),
        heterogeneous_replication=draw(st.booleans()),
        cdm_cut_step=1,
    )
    batch = draw(st.sampled_from((12, 16, 24, 48, 64)))
    return model_name, devices, memory, options, batch


def _planner(model, cluster, profile, options):
    return DiffusionPipePlanner(
        model, cluster, profile, options=options, caches=PlannerCaches()
    )


@settings(max_examples=40, deadline=None)
@given(search_case())
def test_plan_is_first_maximum_and_bound_is_sound(case):
    model_name, devices, memory, options, batch = case
    model, cluster, profile = _setup(model_name, devices, memory)
    exhaustive = _planner(model, cluster, profile, options)
    candidates = exhaustive.candidate_plans(batch)

    for ev in candidates:
        p = ev.plan
        samples = batch * (2 if p.partition.is_bidirectional else 1)
        bound = samples / p.pipeline_ms * 1e3
        assert bound >= p.throughput, (p.config_label, bound, p.throughput)
        cfg = (p.partition.group_size, p.partition.num_stages,
               p.partition.num_micro_batches)
        # The bound the search ranks by is this very expression.
        assert exhaustive._bound(batch, *cfg).hex() == bound.hex()

    # The pruned search runs on its own cold caches.  Throughput ties
    # at the maximum are common on these models, so the tie rule (first
    # in candidate_configs order) is exercised too.
    expected = max(candidates, key=lambda ev: ev.plan.throughput).plan
    got = _planner(model, cluster, profile, options).plan(batch).plan
    assert got.config_label == expected.config_label
    assert got.partition == expected.partition
    assert got.throughput.hex() == expected.throughput.hex()
    assert got.iteration_ms.hex() == expected.iteration_ms.hex()


def test_small_memory_device_rejects_some_configs():
    """The property's small device really exercises the memory gate:
    some configurations OOM, others fit."""
    model, cluster, profile = _setup("uniform", 8, SMALL_MEMORY)
    planner = _planner(model, cluster, profile, PlannerOptions(
        max_stages=4, micro_batch_counts=(1, 2, 3, 4)))
    configs = list(planner.candidate_configs(64))
    fitting = planner.candidate_plans(64)
    assert 0 < len(fitting) < len(configs)


def _count_outer_fills(monkeypatch) -> list[int]:
    """Count outermost ``BubbleFiller.fill`` calls; the lookahead fill
    re-enters it, and inner calls are not separate fills."""
    count = [0]
    depth = [0]
    fill = BubbleFiller.fill

    def counting(self, *args, **kwargs):
        if not depth[0]:
            count[0] += 1
        depth[0] += 1
        try:
            return fill(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(BubbleFiller, "fill", counting)
    return count


def test_cold_plan_fills_only_the_winner(monkeypatch):
    """Counter gate: a cold SD v2.1 (self-conditioning) plan on 16 GPUs
    fills one configuration — its plain and self-conditioned timelines,
    two fills — where the exhaustive search fills all 35 (70 fills)."""
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    options = PlannerOptions(fill_strategy="lookahead")
    fills = _count_outer_fills(monkeypatch)

    best = _planner(model, cluster, profile, options).plan(256)
    assert fills[0] == 2

    fills[0] = 0
    candidates = _planner(model, cluster, profile, options).candidate_plans(256)
    assert fills[0] == 70
    assert best.plan == max(candidates, key=lambda ev: ev.plan.throughput).plan
