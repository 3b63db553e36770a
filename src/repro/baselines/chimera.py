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

from dataclasses import dataclass

from ..cluster.collectives import CollectiveModel
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..schedule import get_family
from ..schedule.simulator import simulate
from ..schedule.stages import StageExec
from ..core.partition import PartitionContext, partition_backbone
from ..core.plan import PartitionPlan, StageAssignment
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

    # -- internals -------------------------------------------------------------

    def _partition(self, batch_per_group: float) -> PartitionPlan:
        S = self.config.num_stages
        link = self.cluster.group_link(list(range(S)))
        from ..cluster.collectives import CommCosts

        dp = self.cluster.world_size // S
        ranks = [g * S for g in range(dp)] or [0]
        ctx = PartitionContext(
            profile=self.profile,
            component=self.model.backbone_names[0],
            batch_per_group=batch_per_group,
            num_micro_batches=self.config.micro_per_direction,
            p2p=CommCosts(bandwidth=link.bandwidth, latency=link.latency),
            allreduce=self.collectives.allreduce_costs(ranks),
        )
        return partition_backbone(ctx, S, S)

    def _stage_execs(
        self, chain: tuple[StageAssignment, ...], micro_batch: float
    ) -> list[StageExec]:
        prof = self.profile
        S = len(chain)
        link = self.cluster.group_link(list(range(S)))
        dp = self.cluster.world_size // S
        execs = []
        for i, st in enumerate(chain):
            local = micro_batch / st.replicas
            fwd = prof.stage_fwd_ms(st.component, st.lo, st.hi, local)
            bwd = prof.stage_bwd_ms(st.component, st.lo, st.hi, local)
            if i < S - 1:
                nbytes = prof.boundary_bytes(st.component, st.hi - 1, local)
                send = nbytes / link.bandwidth + link.latency
            else:
                send = 0.0
            grad = prof.stage_grad_bytes(st.component, st.lo, st.hi)
            # Weight sync covers the replicas of both directions: 2x dp.
            ranks = [g * S for g in range(max(2 * dp, 1))] or [0]
            ranks = [r % self.cluster.world_size for r in ranks]
            sync = self.collectives.allreduce(sorted(set(ranks)), grad) if grad else 0.0
            execs.append(
                StageExec(
                    index=i, fwd_ms=fwd, bwd_ms=bwd,
                    send_fwd_ms=send, send_bwd_ms=send, sync_ms=sync,
                    replicas=st.replicas,
                    layer_range=(st.component, st.lo, st.hi),
                )
            )
        return execs

    def nt_serial_ms(self, batch_per_group: float) -> float:
        """Frozen part executed before pipelining, data parallel."""
        S = self.config.num_stages
        return sum(
            self.profile.component_fwd_ms(c.name, batch_per_group / S)
            for c in self.model.non_trainable
        )

    # -- evaluation --------------------------------------------------------------

    def run(self, global_batch: float) -> BaselineResult:
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
        batch_per_group = global_batch / dp
        partition = self._partition(batch_per_group)
        micro = batch_per_group / (2 * M)

        # Memory: each device hosts a down-stage and an up-stage replica
        # of the model.  Approximate with the bidirectional report on a
        # plan whose up chain mirrors the down chain.
        up = tuple(
            StageAssignment(st.component, st.lo, st.hi, st.replicas)
            for st in partition.down
        )
        bidir_plan = PartitionPlan(
            down=partition.down, up=up, num_stages=S, num_micro_batches=M,
            group_size=S, batch_per_group=batch_per_group,
        )
        memory = pipeline_memory_report(
            self.model, bidir_plan,
            capacity_bytes=self.cluster.device_spec.memory_bytes,
            schedule="bidirectional",
        )
        if not memory.fits:
            return _oom_result(self.name, global_batch, micro, memory)

        execs_down = self._stage_execs(partition.down, micro)
        execs_up = self._stage_execs(partition.down, micro)
        tasks = get_family("bidirectional").build(execs_down, M, up=execs_up)
        tl = simulate(tasks, S, {i: partition.down[i].replicas for i in range(S)})
        nt = self.nt_serial_ms(batch_per_group)
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
            notes=(f"S={S} M=2x{M}",),
        )

    def bubble_ratio(self, global_batch: float) -> float:
        """Bubble ratio of the bidirectional schedule (for Fig. 14-style
        comparisons)."""
        S = self.config.num_stages
        M = self.config.micro_per_direction
        dp = self.cluster.world_size // S
        batch_per_group = global_batch / dp
        partition = self._partition(batch_per_group)
        micro = batch_per_group / (2 * M)
        execs = self._stage_execs(partition.down, micro)
        tasks = get_family("bidirectional").build(execs, M, up=execs)
        tl = simulate(tasks, S, {i: partition.down[i].replicas for i in range(S)})
        nt = self.nt_serial_ms(batch_per_group)
        return tl.bubble_device_time() / (
            (tl.makespan + nt) * tl.total_physical_devices
        )
