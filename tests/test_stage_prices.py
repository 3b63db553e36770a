"""DP-priced stage compute matches the simulated stage execs.

The partition DPs price a stage's compute as the
:class:`~repro.core.partition.StageCosts` fwd + bwd over its layers at
the local batch ``micro_batch / r``, divided by the bottleneck speed
factor of the device window the DP places it on (the stages of a chain,
or a CDM chain position's co-located down and up stage, take
consecutive windows).  The planner prices each simulated
:class:`~repro.schedule.StageExec` from the profile's stage sums,
divided by the factor of the window its placement gives the stage.
The two must agree to rounding on every partition, not only on the
ones the DP picks: the sums run in different orders, so the tolerance
is 1e-12 relative.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerOptions
from repro.core.partition import StageCosts
from repro.core.plan import PartitionPlan, StageAssignment
from repro.models.zoo import cdm_lsun, stable_diffusion_v2_1
from repro.profiling import Profiler

REL_TOL = 1e-12

#: (model, speed factors, heterogeneous replication)
CASES = {
    "sd": (stable_diffusion_v2_1, None, False),
    "sd-slow": (stable_diffusion_v2_1, ((1, 0.6), (6, 0.8)), False),
    "cdm-lsun-het": (cdm_lsun, None, True),
}


@functools.cache
def _planner(case: str) -> DiffusionPipePlanner:
    make_model, factors, het = CASES[case]
    model = make_model()
    cluster = single_node(8, speed_factors=dict(factors) if factors else None)
    return DiffusionPipePlanner(
        model, cluster, Profiler(cluster).profile(model),
        options=PlannerOptions(heterogeneous_replication=het),
    )


def _split(draw, n: int, parts: int) -> list[int]:
    """Bounds ``0 = b_0 < ... < b_parts = n`` of a random split of
    ``n`` into ``parts`` positive pieces."""
    inner = draw(
        st.sets(st.integers(1, n - 1), min_size=parts - 1, max_size=parts - 1)
    ) if parts > 1 else set()
    return [0, *sorted(inner), n]


@st.composite
def partitions(draw, case: str):
    """A random partition of ``case``'s backbone(s): group size, stage
    count, micro-batches, cuts and per-position replica counts."""
    planner = _planner(case)
    D = draw(st.sampled_from((2, 4, 8)))
    S = draw(st.integers(1, min(D, 6)))
    M = draw(st.sampled_from((1, 2, 4, 8)))
    batch_per_group = draw(st.sampled_from((64.0, 128.0, 256.0)))
    # Replica counts: S positive parts of at most D devices.
    devices = _split(draw, draw(st.integers(S, D)), S)
    replicas = [hi - lo for lo, hi in zip(devices, devices[1:])]

    def chain(component, reps):
        bounds = _split(draw, planner.profile.num_layers(component), S)
        return tuple(
            StageAssignment(component, lo, hi, replicas=r)
            for lo, hi, r in zip(bounds, bounds[1:], reps)
        )

    names = planner.model.backbone_names
    down = chain(names[0], replicas)
    # Chain position k hosts down stage k and up stage S - 1 - k.
    up = chain(names[1], replicas[::-1]) if len(names) == 2 else ()
    return PartitionPlan(
        down=down, up=up, num_stages=S, num_micro_batches=M,
        group_size=D, batch_per_group=batch_per_group,
    ), replicas


def _check_stage_prices(case: str, drawn) -> None:
    partition, replicas = drawn
    planner = _planner(case)
    D, M = partition.group_size, partition.num_micro_batches
    # The DP's window of chain position k starts after positions < k.
    starts = [sum(replicas[:k]) for k in range(len(replicas))]
    execs, kwargs, _ = planner._build_args(partition, sc=False)
    chains = [(partition.down, execs, starts)]
    if partition.up:
        chains.append((partition.up, kwargs["up"], starts[::-1]))
    for stages, stage_execs, pds in chains:
        ctx = planner._context(
            partition.batch_per_group, D, M, stages[0].component
        )
        assert len(stage_execs) == len(stages)
        for st_, ex, pd in zip(stages, stage_execs, pds):
            costs = StageCosts(ctx, st_.replicas)
            dp = (costs.fwd(st_.lo, st_.hi) + costs.bwd(st_.lo, st_.hi)) / (
                ctx.window_scale(pd, st_.replicas)
            )
            sim = ex.fwd_ms + ex.bwd_ms
            assert abs(sim - dp) <= REL_TOL * abs(dp), (st_, sim, dp)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stage_prices_match(case, data):
    _check_stage_prices(case, data.draw(partitions(case)))
