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

from ..cluster.collectives import CollectiveModel, CommCosts
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..schedule import get_family
from ..schedule.simulator import simulate
from ..schedule.timeline import Timeline
from ..memory.estimator import pipeline_memory_report
from ..core.partition import _expected
from ..core.plan import PartitionPlan, StageAssignment
from ..core.planner import lower_partition, nt_serial_ms
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

    def _partition(self, batch_per_group: float) -> PartitionPlan:
        """The equal-layer partition of one pipeline group's batch."""
        S = self.config.num_stages
        backbone = self.model.backbone_names[0]
        stages = equal_layer_partition(self.profile.num_layers(backbone), S, backbone)
        return PartitionPlan(
            down=tuple(stages),
            num_stages=S,
            num_micro_batches=self.config.num_micro_batches,
            group_size=S,
            batch_per_group=batch_per_group,
        )

    def simulate_pipeline(self, batch_per_group: float, sc: bool) -> Timeline:
        """Simulate one GPipe iteration of the backbone."""
        S = self.config.num_stages
        link = self.cluster.group_link(list(range(S)))
        # A stage's all-reduce spans one rank per pipeline group.
        ranks = [g * S for g in range(self.cluster.world_size // S)] or [0]
        # The registered ``gpipe`` family and the planner's lowering:
        # the baseline and the planner cannot drift apart.
        family = get_family("gpipe")
        stages, build_args, weights = lower_partition(
            family,
            self._partition(batch_per_group),
            self.profile,
            p2p=CommCosts(bandwidth=link.bandwidth, latency=link.latency),
            sync_ms=lambda _, grad: self.collectives.allreduce(ranks, grad),
            self_conditioning=sc,
        )
        tasks = family.build(stages, self.config.num_micro_batches, **build_args)
        return simulate(tasks, len(weights), weights)

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
        partition = self._partition(batch_per_group)
        memory = pipeline_memory_report(
            self.model,
            partition,
            capacity_bytes=self.cluster.device_spec.memory_bytes,
            schedule="gpipe",
        )
        if not memory.fits:
            return _oom_result(self.name, global_batch, batch_per_group / S, memory)

        nt = nt_serial_ms(self.model, self.profile, batch_per_group, S)
        span = self.simulate_pipeline(batch_per_group, sc=False).makespan
        if self.model.self_conditioning:
            span = _expected(
                self.model.self_conditioning_prob,
                span,
                self.simulate_pipeline(batch_per_group, sc=True).makespan,
            )
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
        nt = nt_serial_ms(
            self.model, self.profile, batch_per_group, self.config.num_stages
        )
        ratio = 0.0
        for tl, weight in variants:
            iteration = tl.makespan + nt
            ratio += weight * tl.bubble_device_time() / (
                iteration * tl.total_physical_devices
            )
        return ratio
