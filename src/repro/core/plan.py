"""Plan dataclasses shared across the DiffusionPipe front-end.

A :class:`PartitionPlan` is the output of the dynamic-programming
partitioner (§4); an :class:`ExecutionPlan` is the planner's final
product for one (S, M, D) configuration: partition + schedule metrics +
bubble-filling outcome + memory report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigurationError
from ..units import is_int, positive_int


@dataclass(frozen=True)
class StageAssignment:
    """One pipeline stage: a contiguous layer slice of a component.

    ``replicas`` is the number of physical devices the stage replicates
    over inside one pipeline-parallel group (the paper's ``r``).
    """

    component: str
    lo: int
    hi: int
    replicas: int = 1

    def __post_init__(self) -> None:
        if not (is_int(self.lo) and is_int(self.hi) and 0 <= self.lo < self.hi):
            raise ConfigurationError(
                f"invalid stage slice [{self.lo!r}, {self.hi!r}) of "
                f"{self.component}: need integers 0 <= lo < hi"
            )
        if not positive_int(self.replicas):
            raise ConfigurationError(
                f"stage replicas must be an integer >= 1, got {self.replicas!r}"
            )

    @property
    def num_layers(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PartitionPlan:
    """Output of the backbone partitioner for one hyper-parameter combo.

    ``down`` holds the stage chain of the (single or down-direction)
    backbone; ``up`` is empty for single-backbone models and holds the
    up-direction backbone's chain for cascaded models (§4.2).

    ``t_max_ms`` is the partition DP's objective (Eqn. 1 / 12 / 18),
    the value the chosen cut minimises; ``w_ms`` and ``y_ms`` are the
    chosen solution's ``T0`` and ``T0^{S-C}`` values.  ``T_max`` ranks
    partitions but does not bound their pipeline time: the simulated
    makespan can exceed it (interleaved SD v2.1 on one 8-GPU node, for
    example, by up to 1.53x).
    """

    down: tuple[StageAssignment, ...]
    up: tuple[StageAssignment, ...] = ()
    num_stages: int = 0
    num_micro_batches: int = 0
    group_size: int = 0
    batch_per_group: float = 0.0
    t_max_ms: float = 0.0
    w_ms: float = 0.0
    y_ms: float = 0.0
    self_conditioning: bool = False

    def __post_init__(self) -> None:
        for name in ("num_stages", "num_micro_batches", "group_size"):
            value = getattr(self, name)
            if not positive_int(value):
                raise ConfigurationError(
                    f"partition plan {name} must be an integer >= 1, "
                    f"got {value!r}"
                )
        if not self.down:
            raise ConfigurationError("partition plan has no stages")
        if len(self.down) != self.num_stages:
            raise ConfigurationError(
                f"down chain has {len(self.down)} stages, expected {self.num_stages}"
            )
        if self.up and len(self.up) != self.num_stages:
            raise ConfigurationError(
                f"up chain has {len(self.up)} stages, expected {self.num_stages}"
            )

    @property
    def is_bidirectional(self) -> bool:
        return bool(self.up)

    @property
    def micro_batch(self) -> float:
        """Micro-batch size (pipeline-group batch / M)."""
        return self.batch_per_group / self.num_micro_batches


@dataclass(frozen=True)
class FillItem:
    """One piece of non-trainable work placed into a bubble."""

    component: str
    layer: int
    samples: float           # total samples processed (across the d devices)
    time_ms: float           # execution time at local batch samples/d
    bubble_index: int
    partial: bool = False    # True if placed via the partial-batch rule


@dataclass(frozen=True)
class BubbleUtilization:
    """Filling outcome of one bubble (for the per-bubble report)."""

    bubble_index: int
    duration_ms: float
    weight: int
    filled_ms: float                 # wall-clock time of the work placed

    @property
    def utilization(self) -> float:
        """Fraction of the bubble's wall-clock capacity consumed."""
        if self.duration_ms <= 0:
            return 0.0
        return min(1.0, self.filled_ms / self.duration_ms)


@dataclass(frozen=True)
class FillReport:
    """Outcome of bubble filling for one schedule."""

    items: tuple[FillItem, ...]
    filled_device_time_ms: float     # sum of item time * idle devices
    bubble_device_time_ms: float     # pre-filling idle device-time
    leftover_ms: float               # NT work executed after the flush
    num_bubbles: int
    complete: bool                   # True if all NT work fit in bubbles
    strategy: str = "greedy"         # registry name of the fill strategy
    #: candidates discarded by the FFC enumeration cap — non-zero means
    #: the search was truncated, not that the fill is invalid
    candidates_dropped: int = 0
    per_bubble: tuple[BubbleUtilization, ...] = ()
    #: lookahead telemetry: states dropped by dominance pruning and beam
    #: cuts during the search (0 for the non-searching strategies)
    states_pruned: int = 0
    #: lookahead telemetry: peak reachable-state count after dominance
    #: pruning, before any beam cut (0 for the non-searching strategies)
    beam_peak: int = 0

    @property
    def fill_fraction(self) -> float:
        """Fraction of bubble device-time consumed by filled work."""
        if self.bubble_device_time_ms <= 0:
            return 0.0
        return min(1.0, self.filled_device_time_ms / self.bubble_device_time_ms)


@dataclass(frozen=True)
class MemoryReport:
    """Peak per-device memory of a plan and the device capacity."""

    peak_bytes: float
    capacity_bytes: float
    breakdown: Mapping[str, float] = field(default_factory=dict)

    @property
    def fits(self) -> bool:
        return self.peak_bytes <= self.capacity_bytes


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully-evaluated configuration, ready for instruction generation.

    ``iteration_ms`` is the steady-state (cross-iteration pipelined)
    training iteration time; ``throughput`` is in samples per second
    over the whole cluster.
    """

    model_name: str
    partition: PartitionPlan
    #: registry name of the schedule family the plan was evaluated
    #: under (see :mod:`repro.schedule.families`)
    schedule: str
    data_parallel_degree: int
    global_batch: float
    pipeline_ms: float
    leftover_ms: float
    iteration_ms: float
    throughput: float
    bubble_ratio_unfilled: float
    bubble_ratio_filled: float
    fill: FillReport | None
    memory: MemoryReport | None
    notes: tuple[str, ...] = ()

    @property
    def config_label(self) -> str:
        """Compact S/M/D/dp label for tables."""
        p = self.partition
        return (
            f"S={p.num_stages} M={p.num_micro_batches} "
            f"D={p.group_size} dp={self.data_parallel_degree}"
        )
