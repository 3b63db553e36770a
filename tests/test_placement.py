"""One placement: everything that places stages reads a schedule
family's ``chains``.

The paper co-locates down stage ``k`` with up stage ``S-1-k`` (§4.2,
Fig. 3) and lays each stage's replicas right after the previous
stage's (Fig. 8).  ``ScheduleFamily.chains`` is the only code that
decides which device hosts which stage: the memory estimator hosts each
device's stages, and the planner derives the simulator's device weights
and each stage's speed window, by walking the chains.  These tests hold
both to the formulas they used to work out on their own
(``tests/oracles/placement.py``), and check that a partition its family
cannot place is rejected everywhere, as are placement counts that are
not integers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.core.plan import PartitionPlan, StageAssignment
from repro.errors import ConfigurationError, PartitionError
from repro.memory import pipeline_memory_report
from repro.models import ComponentSpec, LayerSpec, ModelSpec
from repro.models.zoo import cascaded_model, uniform_model
from repro.profiling import Profiler
from repro.schedule import SCHEDULE_FAMILIES, StageExec, get_family
from tests.oracles import (
    device_weights_reference,
    memory_report_reference,
    stage_execs_reference,
)

nbytes = st.floats(1e3, 1e7)


@st.composite
def memory_case(draw):
    """``(family, model, partition)``: 1-4 stage positions (``v`` chunks
    each for a chunked family) cut from a backbone with drawn parameter
    and activation bytes, 1-3 replicas per stage (co-located
    bidirectional stages agree), M 1-9."""
    family = get_family(draw(st.sampled_from(sorted(SCHEDULE_FAMILIES))))
    S = draw(st.integers(1, 4)) * family.virtual_stages
    L = draw(st.integers(S + 1, S + 6))
    layers = [
        LayerSpec(
            name=f"b{i}", flops_per_sample=1e9, param_bytes=draw(nbytes),
            activation_bytes_per_sample=draw(nbytes), trainable=True,
        )
        for i in range(L)
    ]
    encoder = LayerSpec(
        name="e0", flops_per_sample=1e9, param_bytes=draw(nbytes), trainable=False
    )
    model = ModelSpec(
        "m",
        [
            ComponentSpec("enc", [encoder]),
            ComponentSpec("bb", layers, trainable=True, depends_on=("enc",)),
        ],
        backbone_names=("bb",),
    )

    def chain(replicas):
        cuts = draw(
            st.lists(st.integers(1, L - 1), min_size=S - 1, max_size=S - 1,
                     unique=True)
        )
        bounds = [0, *sorted(cuts), L]
        return tuple(
            StageAssignment("bb", lo, hi, r)
            for lo, hi, r in zip(bounds, bounds[1:], replicas)
        )

    replicas = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))
    partition = PartitionPlan(
        down=chain(replicas),
        up=chain(replicas[::-1]) if family.cascaded else (),
        num_stages=S,
        num_micro_batches=draw(st.integers(1, 9)),
        group_size=sum(replicas),
        batch_per_group=draw(st.floats(1.0, 512.0)),
    )
    return family, model, partition


@settings(max_examples=200, deadline=None)
@given(memory_case())
def test_memory_report_matches_the_position_oracle(case):
    """Walking ``chains`` prices every device bit for bit as hosting
    ``pos, pos + S/v, ...`` plus up stage ``S-1-pos`` did."""
    family, model, partition = case
    got = pipeline_memory_report(
        model, partition, capacity_bytes=1e12, schedule=family.name
    )
    want = memory_report_reference(
        model, partition, capacity_bytes=1e12, family=family
    )
    assert got.peak_bytes.hex() == want.peak_bytes.hex()
    assert {k: v.hex() for k, v in got.breakdown.items()} == {
        k: v.hex() for k, v in want.breakdown.items()
    }


#: two slow devices, so a stage's bottleneck speed depends on where its
#: replica window starts
SPEED_SCALED = single_node(8, speed_factors={1: 0.6, 6: 0.8})


@pytest.mark.parametrize(
    "schedule, make_model, cluster",
    [
        ("onef1b", uniform_model, SPEED_SCALED),
        ("bidirectional", cascaded_model, SPEED_SCALED),
        # Chunked families reject speed factors; this pins the weights
        # and the wrap of the chunk chain's windows.
        ("interleaved", uniform_model, single_node(8)),
    ],
)
def test_stage_execs_match_the_window_oracle(schedule, make_model, cluster):
    """The planner's stage execs and device weights, derived from
    ``chains``, equal the old prefix-sum (down chain) and suffix-sum (up
    chain) windows on every partition of both replication flavours."""
    model = make_model()
    profile = Profiler(cluster).profile(model)
    v = get_family(schedule).virtual_stages
    mixed = 0
    for heterogeneous in (False, True) if v == 1 else (False,):
        planner = DiffusionPipePlanner(
            model, cluster, profile,
            options=PlannerOptions(
                schedule=schedule, heterogeneous_replication=heterogeneous,
                micro_batch_counts=(1, 2, 4),
            ),
            caches=PlannerCaches(),
        )
        for D, S, M in planner.candidate_configs(64):
            try:
                partition = planner._partition(
                    64 / (8 // D), D, S, M, heterogeneous=heterogeneous
                )
            except PartitionError:
                continue
            mixed += len({st.replicas for st in partition.down}) > 1
            stages, args, weights = planner._build_args(partition, sc=False)
            micro = partition.micro_batch
            assert stages == stage_execs_reference(planner, partition.down, micro, D)
            if partition.is_bidirectional:
                assert args["up"] == stage_execs_reference(
                    planner, partition.up, micro, D, reverse_windows=True
                )
            assert weights == device_weights_reference(partition, v)
    # Windows that differ in length were reached.
    assert mixed or v > 1


@pytest.mark.parametrize(
    "name, up, n, match",
    [
        ("onef1b", True, 2, "single backbone"),
        ("bidirectional", False, 2, "up-pipeline"),
        ("interleaved", False, 3, "whole number of chunks"),
    ],
    ids=["up-chain-under-onef1b", "bidirectional-without-up", "odd-chunks"],
)
def test_unplaceable_partitions_are_rejected(name, up, n, match):
    """``chains`` rejects what its family cannot place on a partition's
    stages, and so does the memory estimator, which used to price such
    a partition silently (``build`` and ``floor`` reject the same
    ``StageExec`` chains: ``test_makespan_floor.py``)."""
    model = uniform_model()
    bb = model.backbone_names[0]
    down = tuple(StageAssignment(bb, i, i + 1) for i in range(n))
    with pytest.raises(ConfigurationError, match=match):
        get_family(name).chains(down, down if up else None)
    plan = PartitionPlan(
        down=down, up=down if up else (), num_stages=n, num_micro_batches=2,
        group_size=n, batch_per_group=8.0,
    )
    with pytest.raises(ConfigurationError, match=match):
        pipeline_memory_report(model, plan, capacity_bytes=1e12, schedule=name)


#: every placement count, set to a value ``int()`` would have truncated
#: or a ``bool``
BAD_COUNTS = {
    "assignment-replicas-fraction": lambda: StageAssignment("bb", 0, 2, 1.5),
    "assignment-replicas-bool": lambda: StageAssignment("bb", 0, 2, True),
    "assignment-lo-fraction": lambda: StageAssignment("bb", 0.5, 2),
    "assignment-hi-float": lambda: StageAssignment("bb", 0, 2.0),
    "exec-replicas-fraction": lambda: StageExec(
        index=0, fwd_ms=1.0, bwd_ms=1.0, replicas=1.5
    ),
    "exec-index-fraction": lambda: StageExec(index=0.5, fwd_ms=1.0, bwd_ms=1.0),
    "exec-index-bool": lambda: StageExec(index=False, fwd_ms=1.0, bwd_ms=1.0),
    "plan-num-stages": lambda: _plan(num_stages=1.0),
    "plan-num-micro-batches": lambda: _plan(num_micro_batches=4.5),
    "plan-group-size": lambda: _plan(group_size=True),
}


def _plan(**fields):
    return PartitionPlan(
        down=(StageAssignment("bb", 0, 2),),
        **{"num_stages": 1, "num_micro_batches": 4, "group_size": 1,
           "batch_per_group": 8.0, **fields},
    )


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_placement_counts_are_integers(case):
    """``replicas=1.5`` used to price an SD v2.1 stage at local batch
    ``micro / 1.5`` (a 15.15 GB peak instead of 17.73 GB) without an
    error; numpy integers stay counts."""
    with pytest.raises(ConfigurationError):
        BAD_COUNTS[case]()
    i = np.int64
    assert StageAssignment("bb", i(0), i(2), i(2)).num_layers == 2
    assert StageExec(index=i(1), fwd_ms=1.0, bwd_ms=1.0, replicas=i(3)).replicas == 3
    assert _plan(num_micro_batches=i(2)).micro_batch == 4.0
