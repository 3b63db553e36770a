"""Per-device memory estimation and OOM detection.

Memory model (mixed-precision Adam, the setup of the paper's testbed):

* trainable parameters: fp16 copy (2 B/param) + fp32 master (4 B)
* gradients: fp16 (2 B)
* optimiser states: 2 fp32 moments (8 B)
  => 16 bytes per trainable parameter resident on a device
* frozen parameters: fp16 only (2 B/param), with no gradients/states
* activations: per in-flight micro-batch, the sum of the resident
  layers' stored-activation bytes at the local batch size.  The window
  comes from the schedule family: 1F1B keeps at most ``len(chain) - s``
  micro-batches alive on stage ``s`` of its chain; a ``forwards_first``
  family (GPipe) has no in-flight window and is priced at all ``M``, an
  upper bound, since a backward can free a micro-batch before a later
  micro-batch's forward arrives.  The zero-bubble family's deferred W
  tasks stretch some activations' lifetimes slightly; pricing it with
  the 1F1B window is its documented approximation (see
  :class:`~repro.schedule.families.ZeroBubbleFamily`).

Which stages a device hosts comes from the family's ``chains``, the
placement the schedule builder and the simulator use too.

ZeRO-3 shards parameters, gradients and optimiser states across the
data-parallel group and materialises at most one layer's parameters at
a time.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..models.component import ComponentSpec
from ..models.graph import ModelSpec
from ..models.layers import DTYPE_BYTES
from ..core.plan import MemoryReport, PartitionPlan, StageAssignment
from ..schedule import get_family

#: bytes per trainable parameter: fp16 param + fp16 grad + fp32 master
#: + two fp32 Adam moments
TRAINABLE_STATE_BYTES_PER_PARAM = 16.0
#: bytes per frozen parameter (fp16 weights only)
FROZEN_STATE_BYTES_PER_PARAM = 2.0


def _param_count(param_bytes: float) -> float:
    return param_bytes / DTYPE_BYTES


def component_state_bytes(comp: ComponentSpec) -> float:
    """Parameter + optimiser state bytes of a whole component."""
    per_param = (
        TRAINABLE_STATE_BYTES_PER_PARAM if comp.trainable else FROZEN_STATE_BYTES_PER_PARAM
    )
    return _param_count(comp.param_bytes) * per_param


def frozen_state_bytes(model: ModelSpec) -> float:
    """Bytes for hosting every frozen component's weights (each device
    runs the non-trainable part data-parallel, so each hosts a copy)."""
    return sum(component_state_bytes(c) for c in model.non_trainable)


def stage_activation_bytes(
    model: ModelSpec, stage: StageAssignment, local_batch: float
) -> float:
    """Stored-activation bytes of one in-flight micro-batch on a stage."""
    comp = model.components[stage.component]
    total = 0.0
    for i in range(stage.lo, stage.hi):
        total += comp.layers[i].activation_bytes(local_batch)
    return total


def stage_state_bytes(model: ModelSpec, stage: StageAssignment) -> float:
    """Parameter/gradient/optimiser bytes of one stage on one device."""
    comp = model.components[stage.component]
    params = sum(
        _param_count(comp.layers[i].param_bytes) for i in range(stage.lo, stage.hi)
    )
    per_param = (
        TRAINABLE_STATE_BYTES_PER_PARAM
        if comp.trainable
        else FROZEN_STATE_BYTES_PER_PARAM
    )
    return params * per_param


def pipeline_memory_report(
    model: ModelSpec,
    partition: PartitionPlan,
    *,
    capacity_bytes: float,
    schedule: str = "onef1b",
) -> MemoryReport:
    """Peak per-device memory under pipeline training.

    ``schedule`` names a registered schedule family (unknown names raise
    :class:`ConfigurationError`), whose ``chains`` place the partition's
    stages; a partition the family cannot place raises
    :class:`ConfigurationError`.  Stage ``s`` of a chain keeps
    ``min(len(chain) - s, M)`` micro-batches alive (the 1F1B in-flight
    window the schedule builder wires), or all ``M`` for a
    ``forwards_first`` family (GPipe, an upper bound).  Every device
    additionally hosts the frozen components for bubble filling; the
    peak is the largest device total.
    """
    family = get_family(schedule)
    M = partition.num_micro_batches
    # Device -> (stage, in-flight window) of every stage it hosts, in
    # chain order.
    hosted: dict[int, list[tuple[StageAssignment, int]]] = {}
    chains = family.chains(partition.down, partition.up or None)
    for chain, device_order in chains:
        for s, (stage, d) in enumerate(zip(chain, device_order)):
            inflight = M if family.forwards_first else min(len(chain) - s, M)
            hosted.setdefault(d, []).append((stage, inflight))
    frozen = frozen_state_bytes(model)

    peak = 0.0
    breakdown: dict[str, float] = {}
    for d in sorted(hosted):
        dev_total = frozen
        for stage, inflight in hosted[d]:
            local_batch = partition.micro_batch / stage.replicas
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


def data_parallel_memory_report(
    model: ModelSpec,
    local_batch: float,
    *,
    capacity_bytes: float,
    zero3: bool = False,
    world_size: int = 1,
) -> MemoryReport:
    """Peak per-device memory under DDP or ZeRO-3 data parallelism."""
    if local_batch <= 0:
        raise ConfigurationError("local batch must be positive")
    if world_size <= 0:
        raise ConfigurationError("world size must be positive")
    trainable_state = sum(
        component_state_bytes(model.components[n]) for n in model.backbone_names
    )
    frozen = frozen_state_bytes(model)
    activations = 0.0
    largest_layer_params = 0.0
    for name in model.backbone_names:
        comp = model.components[name]
        for layer in comp.layers:
            activations += layer.activation_bytes(local_batch)
            largest_layer_params = max(largest_layer_params, layer.param_bytes)
    if zero3:
        sharded = trainable_state / world_size
        # Working set: the currently-gathered layer's fp16 parameters.
        state = sharded + largest_layer_params
    else:
        state = trainable_state
    peak = state + frozen + activations
    return MemoryReport(
        peak_bytes=peak,
        capacity_bytes=capacity_bytes,
        breakdown={
            "trainable_states": state,
            "frozen_components": frozen,
            "activations": activations,
        },
    )
