"""GPipe baseline (Huang et al. 2019), as evaluated in the paper.

GPipe partitions the backbone into stages with *equal layer counts*
(no cost-aware partitioning), runs the ``gpipe`` schedule family (no
in-flight window; a ready forward always beats a ready backward), and
does not fill bubbles: the non-trainable part executes before backbone
pipelining, data-parallel across the pipeline group (the
"backbone-only pipelining" of Fig. 9).  The paper evaluates GPipe with
2 stages and 4 micro-batches; both are parameters here.
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
from ..schedule.timeline import Timeline
from ..memory.estimator import pipeline_memory_report
from ..core.plan import PartitionPlan, StageAssignment
from .data_parallel import BaselineResult, _oom_result


def equal_layer_partition(
    num_layers: int, num_stages: int, component: str, replicas: int = 1
) -> list[StageAssignment]:
    """Cut a chain into stages of (near-)equal layer counts."""
    if num_stages <= 0 or num_stages > num_layers:
        raise ConfigurationError(
            f"cannot cut {num_layers} layers into {num_stages} stages"
        )
    base = num_layers // num_stages
    extra = num_layers % num_stages
    out = []
    lo = 0
    for s in range(num_stages):
        hi = lo + base + (1 if s < extra else 0)
        out.append(StageAssignment(component, lo, hi, replicas=replicas))
        lo = hi
    return out


@dataclass(frozen=True)
class GPipeConfig:
    """The paper's GPipe evaluation setting."""

    num_stages: int = 2
    num_micro_batches: int = 4


class GPipeBaseline:
    """Equal-layer GPipe with serial NT execution."""

    name = "GPipe"

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        profile: ProfileDB,
        config: GPipeConfig | None = None,
        *,
        collectives: CollectiveModel | None = None,
    ):
        if len(model.backbone_names) != 1:
            raise ConfigurationError(
                "GPipe does not support pipelining multiple models (§6)"
            )
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.config = config or GPipeConfig()
        self.collectives = collectives or CollectiveModel(cluster)

    def _stage_execs(
        self, stages: list[StageAssignment], micro_batch: float, sc: bool
    ) -> list[StageExec]:
        prof = self.profile
        D = self.config.num_stages
        link = self.cluster.group_link(list(range(D)))
        dp = self.cluster.world_size // D
        execs = []
        for i, st in enumerate(stages):
            local = micro_batch / st.replicas
            fwd = prof.stage_fwd_ms(st.component, st.lo, st.hi, local)
            bwd = prof.stage_bwd_ms(st.component, st.lo, st.hi, local)
            if i < len(stages) - 1:
                nbytes = prof.boundary_bytes(st.component, st.hi - 1, local)
                send = nbytes / link.bandwidth + link.latency
            else:
                send = 0.0
            grad = prof.stage_grad_bytes(st.component, st.lo, st.hi)
            ranks = [g * D for g in range(dp)] or [0]
            sync = self.collectives.allreduce(ranks, grad) if grad > 0 else 0.0
            execs.append(
                StageExec(
                    index=i,
                    fwd_ms=fwd,
                    bwd_ms=bwd,
                    sc_fwd_ms=fwd if sc else None,
                    send_fwd_ms=send,
                    send_bwd_ms=send,
                    sync_ms=sync,
                    replicas=st.replicas,
                    layer_range=(st.component, st.lo, st.hi),
                )
            )
        return execs

    def simulate_pipeline(self, batch_per_group: float, sc: bool) -> Timeline:
        """Simulate one GPipe iteration of the backbone."""
        S = self.config.num_stages
        M = self.config.num_micro_batches
        backbone = self.model.backbone_names[0]
        stages = equal_layer_partition(
            self.profile.num_layers(backbone), S, backbone
        )
        micro = batch_per_group / M
        execs = self._stage_execs(stages, micro, sc)
        feedback = 0.0
        if sc:
            last = stages[-1]
            nbytes = self.profile.boundary_bytes(backbone, last.hi - 1, micro)
            link = self.cluster.group_link(list(range(S)))
            feedback = nbytes / link.bandwidth + link.latency
        # The registered ``gpipe`` family is the same builder the planner
        # uses — the baseline and the planner cannot drift apart.
        tasks = get_family("gpipe").build(
            execs, M, self_conditioning=sc, feedback_ms=feedback
        )
        return simulate(tasks, S)

    def nt_serial_ms(self, batch_per_group: float) -> float:
        """Serial NT execution, data-parallel across the group."""
        D = self.config.num_stages
        total = 0.0
        for comp in self.model.non_trainable:
            total += self.profile.component_fwd_ms(comp.name, batch_per_group / D)
        return total

    def run(self, global_batch: float) -> BaselineResult:
        S = self.config.num_stages
        M = self.config.num_micro_batches
        world = self.cluster.world_size
        if world % S != 0:
            raise ConfigurationError(f"world {world} not divisible by {S} stages")
        dp = world // S
        if global_batch % dp != 0 or (global_batch / dp) % M != 0:
            raise ConfigurationError(
                f"global batch {global_batch} incompatible with dp={dp}, M={M}"
            )
        batch_per_group = global_batch / dp

        backbone = self.model.backbone_names[0]
        stages = equal_layer_partition(self.profile.num_layers(backbone), S, backbone)
        partition = PartitionPlan(
            down=tuple(stages),
            num_stages=S,
            num_micro_batches=M,
            group_size=S,
            batch_per_group=batch_per_group,
        )
        memory = pipeline_memory_report(
            self.model,
            partition,
            capacity_bytes=self.cluster.device_spec.memory_bytes,
            schedule="gpipe",
        )
        if not memory.fits:
            return _oom_result(self.name, global_batch, batch_per_group / S, memory)

        nt = self.nt_serial_ms(batch_per_group)
        if self.model.self_conditioning:
            p = self.model.self_conditioning_prob
            span = (1 - p) * self.simulate_pipeline(
                batch_per_group, sc=False
            ).makespan + p * self.simulate_pipeline(batch_per_group, sc=True).makespan
        else:
            span = self.simulate_pipeline(batch_per_group, sc=False).makespan
        iteration = span + nt
        return BaselineResult(
            name=self.name,
            global_batch=global_batch,
            local_batch=batch_per_group / S,
            compute_ms=span,
            sync_ms=0.0,
            iteration_ms=iteration,
            throughput=global_batch / iteration * 1e3,
            memory=memory,
            oom=False,
        )

    def bubble_ratio(self, global_batch: float) -> float:
        """Fig. 14's metric for GPipe (iteration includes the NT phase)."""
        world = self.cluster.world_size
        dp = world // self.config.num_stages
        batch_per_group = global_batch / dp
        if self.model.self_conditioning:
            p = self.model.self_conditioning_prob
            variants = [(self.simulate_pipeline(batch_per_group, sc=False), 1 - p),
                        (self.simulate_pipeline(batch_per_group, sc=True), p)]
        else:
            variants = [(self.simulate_pipeline(batch_per_group, sc=False), 1.0)]
        nt = self.nt_serial_ms(batch_per_group)
        ratio = 0.0
        for tl, weight in variants:
            iteration = tl.makespan + nt
            ratio += weight * tl.bubble_device_time() / (
                iteration * tl.total_physical_devices
            )
        return ratio
