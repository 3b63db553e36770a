"""Oracles of the stage placement (§4.2, Fig. 3; Fig. 8).

Before every consumer read a schedule family's ``chains``, the memory
estimator and the planner each worked out by themselves which device
hosts which stage.  Their formulas live on here, so the suites can hold
the chain-derived placement to them:

* :func:`memory_report_reference` — device ``pos`` hosts chain stages
  ``pos, pos + S/v, ...`` and, on a bidirectional partition, up stage
  ``S - 1 - pos``;
* :func:`stage_execs_reference` — stage ``i``'s replica window starts
  at the prefix sum of the chain's replica counts before it (the suffix
  sum after it on the up chain), modulo the group for a chunk chain;
* :func:`device_weights_reference` — the simulator's weights: chain
  position ``i``'s replica count, or the larger of down stage ``i``'s
  and up stage ``S - 1 - i``'s.
"""

from __future__ import annotations

from repro.core.plan import MemoryReport, PartitionPlan
from repro.memory.estimator import (
    frozen_state_bytes,
    stage_activation_bytes,
    stage_state_bytes,
)
from repro.schedule import StageExec


def memory_report_reference(model, partition, *, capacity_bytes, family):
    """``pipeline_memory_report`` before it walked ``family.chains``."""
    S = partition.num_stages
    M = partition.num_micro_batches
    positions = S // family.virtual_stages
    frozen = frozen_state_bytes(model)

    peak = 0.0
    breakdown: dict[str, float] = {}
    for pos in range(positions):
        hosted = [(i, partition.down[i]) for i in range(pos, S, positions)]
        if partition.is_bidirectional:
            hosted.append((S - 1 - pos, partition.up[S - 1 - pos]))
        dev_total = frozen
        for i, stage in hosted:
            local_batch = partition.micro_batch / stage.replicas
            inflight = M if family.forwards_first else min(S - i, M)
            act = stage_activation_bytes(model, stage, local_batch) * inflight
            state = stage_state_bytes(model, stage)
            dev_total += act + state
        if dev_total > peak:
            peak = dev_total
            breakdown = {
                "frozen_components": frozen,
                "stage_states_and_activations": dev_total - frozen,
            }
    return MemoryReport(
        peak_bytes=peak, capacity_bytes=capacity_bytes, breakdown=breakdown
    )


def stage_execs_reference(
    planner, chain, micro_batch, group_size, reverse_windows=False
) -> list[StageExec]:
    """``DiffusionPipePlanner._stage_execs`` before it took its window
    starts from ``_build_args``."""
    prof = planner.profile
    p2p = planner._p2p_costs(group_size)
    scales = planner._group_speed_scales(group_size) or (1.0,) * group_size
    offsets = [0]
    for st in chain:
        offsets.append(offsets[-1] + st.replicas)
    execs = []
    for i, st in enumerate(chain):
        local = micro_batch / st.replicas
        fwd = prof.stage_fwd_ms(st.component, st.lo, st.hi, local)
        bwd = prof.stage_bwd_ms(st.component, st.lo, st.hi, local)
        if i < len(chain) - 1:
            nbytes = prof.boundary_bytes(st.component, st.hi - 1, local)
            send_fwd = nbytes / p2p.bandwidth + p2p.latency
            send_bwd = send_fwd
        else:
            send_fwd = send_bwd = 0.0
        grad = prof.stage_grad_bytes(st.component, st.lo, st.hi)
        ar = planner._allreduce_costs(group_size, st.replicas)
        sync = grad / ar.bandwidth + ar.latency if grad > 0 else 0.0
        bwd_w = prof.stage_bwd_w_ms(st.component, st.lo, st.hi, local)
        bwd_b = prof.stage_bwd_b_ms(st.component, st.lo, st.hi, local)
        pd = (
            offsets[-1] - offsets[i + 1] if reverse_windows else offsets[i]
        ) % group_size
        w = min(scales[pd : pd + st.replicas])
        execs.append(
            StageExec(
                index=i,
                fwd_ms=fwd / w,
                bwd_ms=bwd / w,
                bwd_b_ms=bwd_b / w,
                bwd_w_ms=bwd_w / w,
                send_fwd_ms=send_fwd,
                send_bwd_ms=send_bwd,
                sync_ms=sync,
                replicas=st.replicas,
                layer_range=(st.component, st.lo, st.hi),
            )
        )
    return execs


def device_weights_reference(
    partition: PartitionPlan, virtual_stages: int
) -> dict[int, int]:
    """The simulator's device weights before they came from
    ``family.chains``."""
    S = partition.num_stages
    if partition.is_bidirectional:
        return {
            i: max(partition.down[i].replicas, partition.up[S - 1 - i].replicas)
            for i in range(S)
        }
    return {i: partition.down[i].replicas for i in range(S // virtual_stages)}
