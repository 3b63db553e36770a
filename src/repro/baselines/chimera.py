"""Chimera baseline (Li & Hoefler 2021).

Chimera reduces pipeline bubbles for a *single* model by running two
model replicas over the same devices in opposite directions and
splitting the micro-batches between them (Fig. 3 of the paper).  Each
device hosts two stages (one per direction), so memory doubles relative
to a unidirectional pipeline of the same depth, and weight-update
synchronisation covers both replicas.

DiffusionPipe uses the same bidirectional machinery for *cascaded*
models (§4.2); this baseline applies it to single-backbone models for
comparison, with the backbone split by the same DP partitioner and no
bubble filling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.collectives import CollectiveModel, CommCosts
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..schedule import get_family
from ..schedule.simulator import simulate
from ..schedule.timeline import Timeline
from ..core.partition import PartitionContext, partition_backbone
from ..core.plan import PartitionPlan
from ..core.planner import lower_partition, nt_serial_ms
from ..memory.estimator import pipeline_memory_report
from .data_parallel import BaselineResult, _oom_result


@dataclass(frozen=True)
class ChimeraConfig:
    """Chimera evaluation setting: stage count and micro-batches per
    direction (total micro-batches = 2 x ``micro_per_direction``)."""

    num_stages: int = 2
    micro_per_direction: int = 2


class ChimeraBaseline:
    """Bidirectional pipelining of a single backbone, no bubble filling."""

    name = "Chimera"

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        profile: ProfileDB,
        config: ChimeraConfig | None = None,
        *,
        collectives: CollectiveModel | None = None,
    ):
        if len(model.backbone_names) != 1:
            raise ConfigurationError("Chimera baseline takes a single backbone")
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.config = config or ChimeraConfig()
        self.collectives = collectives or CollectiveModel(cluster)
        self._family = get_family("bidirectional")

    # -- internals -------------------------------------------------------------

    def _comm(self) -> tuple[CommCosts, list[int]]:
        """The pipeline group's p2p constants and the ranks a stage's
        gradient all-reduce spans: one per pipeline group."""
        S = self.config.num_stages
        link = self.cluster.group_link(list(range(S)))
        ranks = [g * S for g in range(self.cluster.world_size // S)]
        return CommCosts(bandwidth=link.bandwidth, latency=link.latency), ranks

    def _partition(self, global_batch: float) -> PartitionPlan:
        """The bidirectional partition of one pipeline group: each
        direction trains half of the group's batch in
        ``micro_per_direction`` micro-batches over one DP-cut stage
        chain (the up direction's stage ``s`` on device ``S - 1 - s``).
        Raises :class:`ConfigurationError` unless the stage count
        divides the world and each direction's micro-batches hold whole
        samples."""
        S = self.config.num_stages
        M = self.config.micro_per_direction
        world = self.cluster.world_size
        if world % S != 0:
            raise ConfigurationError(f"world {world} not divisible by {S}")
        dp = world // S
        if global_batch % dp != 0 or (global_batch / dp) % (2 * M) != 0:
            raise ConfigurationError(
                f"global batch {global_batch} incompatible with dp={dp}, "
                f"2M={2 * M}"
            )
        p2p, ranks = self._comm()
        ctx = PartitionContext(
            profile=self.profile,
            component=self.model.backbone_names[0],
            batch_per_group=global_batch / dp / 2,
            num_micro_batches=M,
            p2p=p2p,
            allreduce=self.collectives.allreduce_costs(ranks),
        )
        plan = partition_backbone(ctx, S, S)
        return replace(plan, up=plan.down)

    def _iteration(self, partition: PartitionPlan) -> tuple[Timeline, float]:
        """The simulated bidirectional pipeline of a partition, and the
        serial NT time before it: the NT part runs on both directions'
        samples, data-parallel across the group."""
        p2p, ranks = self._comm()
        stages, build_args, weights = lower_partition(
            self._family,
            partition,
            self.profile,
            p2p=p2p,
            sync_ms=lambda _, grad: self.collectives.allreduce(ranks, grad),
        )
        tasks = self._family.build(stages, partition.num_micro_batches, **build_args)
        nt = nt_serial_ms(
            self.model, self.profile, 2 * partition.batch_per_group,
            partition.num_stages,
        )
        return simulate(tasks, len(weights), weights), nt

    # -- evaluation --------------------------------------------------------------

    def run(self, global_batch: float) -> BaselineResult:
        partition = self._partition(global_batch)
        micro = partition.micro_batch
        # Each device hosts a stage of each direction.
        memory = pipeline_memory_report(
            self.model, partition,
            capacity_bytes=self.cluster.device_spec.memory_bytes,
            schedule="bidirectional",
        )
        if not memory.fits:
            return _oom_result(self.name, global_batch, micro, memory)

        tl, nt = self._iteration(partition)
        iteration = tl.makespan + nt
        return BaselineResult(
            name=self.name,
            global_batch=global_batch,
            local_batch=micro,
            compute_ms=tl.makespan,
            sync_ms=0.0,
            iteration_ms=iteration,
            throughput=global_batch / iteration * 1e3,
            memory=memory,
            oom=False,
            notes=(
                f"S={partition.num_stages} M=2x{partition.num_micro_batches}",
            ),
        )

    def bubble_ratio(self, global_batch: float) -> float:
        """Bubble ratio of the bidirectional schedule (for Fig. 14-style
        comparisons); rejects the batches :meth:`run` rejects."""
        tl, nt = self._iteration(self._partition(global_batch))
        return tl.bubble_device_time() / (
            (tl.makespan + nt) * tl.total_physical_devices
        )
