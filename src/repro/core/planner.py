"""The DiffusionPipe planner: Fig. 7's front-end, steps 2-5.

Given a model, a cluster and a global batch size, the planner sweeps the
pipeline hyper-parameters of Table 3 — stage count ``S``, micro-batch
count ``M`` and pipeline-group size ``D`` (world = D x data-parallel
degree) — and for each feasible combination:

1. runs the dynamic-programming partitioner (§4) for the backbone(s);
   with heterogeneous replication and ``S | D`` the pinned ``r = D/S``
   partition joins the DP's pick as a second finalist, and the one
   that trains faster wins;
2. builds the configured schedule family — FIFO-1F1B by default,
   bidirectional for cascaded models, or any other registered
   :class:`~repro.schedule.families.ScheduleFamily` (``gpipe``,
   ``interleaved``, ``zerobubble``) via ``PlannerOptions.schedule`` —
   and simulates it on the cluster model;
3. extracts pipeline bubbles and fills them with the non-trainable
   part under cross-iteration pipelining (§5, §3.2);
4. estimates the steady-state iteration time and checks device memory;

and finally returns the configuration with the highest throughput.
:meth:`DiffusionPipePlanner.plan` is a bound ladder: a configuration is
partitioned only while its pre-partition makespan floor (every family
with one stage per device, single-backbone or bidirectional) can still
beat the best plan found so far, simulated only while the closed-form
makespan floor of its finalists can, and filled only while its
simulated ``samples / pipeline_ms`` bound can;
:meth:`~DiffusionPipePlanner.candidate_plans` evaluates them all.

Step 2's lowering of a partition to the family's stage chain,
:func:`lower_partition`, and the serial non-trainable time,
:func:`nt_serial_ms`, are module-level: the GPipe and Chimera baselines
lower their partitions through the same two functions.
"""

from __future__ import annotations

import heapq
import math
import weakref
from itertools import accumulate
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from ..cluster.collectives import CollectiveModel, CommCosts
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError, PartitionError
from ..models.graph import ModelSpec
from ..profiling.profiler import Profiler
from ..profiling.records import ProfileDB
from ..schedule import get_family, schedule_family_names
from ..schedule.families import ScheduleFamily, device_weights
from ..schedule.simulator import simulate
from ..schedule.stages import StageExec
from ..schedule.timeline import Timeline
from .bubbles import DEFAULT_MIN_BUBBLE_MS, extract_bubbles
from .caches import CacheStats, PlannerCaches, default_caches
from .cross_iteration import compose_iteration
from .fill_strategies import FILL_STRATEGIES, fill_strategy_names
from .filling import VALID_LOCAL_BATCHES, BubbleFiller, FillShapeCache
from .partition import (
    PartitionContext,
    _expected,
    backbone_makespan_floor,
    backbone_table_served,
    partition_backbone,
)
from .partition_cdm import (
    CDMPartitionContext,
    cdm_makespan_floor,
    partition_cdm,
)
from .plan import (
    ExecutionPlan,
    FillReport,
    MemoryReport,
    PartitionPlan,
    StageAssignment,
    positive_int,
)

__all__ = [
    "PlannerOptions",
    "EvaluatedConfig",
    "PlannerCaches",
    "CacheStats",
    "FillShapeCache",
    "default_caches",
    "DiffusionPipePlanner",
    "lower_partition",
    "nt_serial_ms",
]


#: one finalist of a configuration: its partition, memory report (None
#: without the memory check) and closed-form pipeline floor in ms
Finalist = tuple[PartitionPlan, MemoryReport | None, float]


def _check_global_batch(global_batch: float) -> None:
    if not 0 < global_batch < math.inf:
        raise ConfigurationError(
            f"global batch must be finite and positive, got {global_batch!r}"
        )


def _samples_per_iter(global_batch: float, partition: PartitionPlan) -> float:
    """Samples trained per iteration; a bidirectional plan trains both
    backbones on the batch."""
    return global_batch * (2 if partition.is_bidirectional else 1)


def _throughput_bound(
    global_batch: float, partition: PartitionPlan, pipeline_ms: float
) -> float:
    """``samples / pipeline_ms`` in samples/s, an upper bound on the
    throughput of any iteration whose pipeline takes at least
    ``pipeline_ms``; infinite for an empty pipeline."""
    if not pipeline_ms > 0:
        return math.inf
    return _samples_per_iter(global_batch, partition) / pipeline_ms * 1e3


def nt_serial_ms(
    model: ModelSpec, profile: ProfileDB, batch_per_group: float, devices: int
) -> float:
    """Serial (pre-pipeline) execution time of the whole NT part,
    data-parallel across ``devices`` devices."""
    total = 0.0
    for comp in model.non_trainable:
        total += profile.component_fwd_ms(comp.name, batch_per_group / devices)
    return total


def lower_partition(
    family: ScheduleFamily,
    partition: PartitionPlan,
    profile: ProfileDB,
    *,
    p2p: CommCosts,
    sync_ms: Callable[[int, float], float],
    speed_factors: Sequence[float] | None = None,
    self_conditioning: bool = False,
) -> tuple[list[StageExec], dict, dict[int, int]]:
    """The stage chain and keyword arguments ``family``'s ``build`` (and
    its ``floor``) takes for a partition, and the simulator's device
    weights.

    The family's ``chains`` place the partition's stages.  A device's
    weight is the replica count of the stages it hosts, and a stage runs
    on the replica window that starts where the windows of the devices
    before its own end — the partition DP's placement convention.  Each
    stage computes at its local batch (the micro-batch over its
    replicas), slowed to the bottleneck of its window's
    ``speed_factors`` (one per group device; ``None`` runs every device
    at 1.0) — the min-over-window the partition DP prices, so the
    simulated timeline and the DP's ``T0`` agree on slowdowns.  A stage
    other than a chain's last sends its activations and input gradients
    over ``p2p``, and a stage with gradients all-reduces them in
    ``sync_ms(replicas, grad_bytes)``; communication is never
    compute-scaled.  Every exec carries the profile's split of its
    backward into grad-input (B) and grad-weight (W), which only the
    split-backward family reads.

    A bidirectional partition's keywords are its ``up`` chain; a single
    chain's are ``self_conditioning`` and the feedback of its last
    stage's output to its first over ``p2p`` (0 without
    self-conditioning).
    """
    chains = family.chains(partition.down, partition.up or None)
    weights = device_weights(chains)
    starts = [0, *accumulate(weights.values())]
    micro = partition.micro_batch

    def send_ms(st: StageAssignment) -> float:
        local = micro / st.replicas
        nbytes = profile.boundary_bytes(st.component, st.hi - 1, local)
        return nbytes / p2p.bandwidth + p2p.latency

    execs = []
    for chain, device_order in chains:
        stages = []
        for i, (st, d) in enumerate(zip(chain, device_order)):
            span = (st.component, st.lo, st.hi, micro / st.replicas)
            w = 1.0
            if speed_factors is not None:
                w = min(speed_factors[starts[d] : starts[d] + st.replicas])
            send = send_ms(st) if i < len(chain) - 1 else 0.0
            grad = profile.stage_grad_bytes(st.component, st.lo, st.hi)
            stages.append(
                StageExec(
                    index=i,
                    fwd_ms=profile.stage_fwd_ms(*span) / w,
                    bwd_ms=profile.stage_bwd_ms(*span) / w,
                    bwd_b_ms=profile.stage_bwd_b_ms(*span) / w,
                    bwd_w_ms=profile.stage_bwd_w_ms(*span) / w,
                    send_fwd_ms=send,
                    send_bwd_ms=send,
                    sync_ms=sync_ms(st.replicas, grad) if grad > 0 else 0.0,
                    replicas=st.replicas,
                    layer_range=(st.component, st.lo, st.hi),
                )
            )
        execs.append(stages)
    if partition.is_bidirectional:
        return execs[0], {"up": execs[1]}, weights
    feedback = send_ms(partition.down[-1]) if self_conditioning else 0.0
    return (
        execs[0],
        {"self_conditioning": self_conditioning, "feedback_ms": feedback},
        weights,
    )


def _check_menu(name: str, menu: tuple[int, ...], least: int) -> None:
    """A search menu is a non-empty set of integers >= ``least``, listed
    once each: a repeated entry would plan its configurations twice."""
    if not menu:
        raise ConfigurationError(f"{name} must be non-empty")
    if not all(positive_int(v) and v >= least for v in menu):
        raise ConfigurationError(
            f"{name} entries must be integers >= {least}, got {menu!r}"
        )
    if len(set(menu)) != len(menu):
        raise ConfigurationError(
            f"{name} entries must be distinct, got {menu!r}"
        )


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs of the planner search and the bubble-filling ablations."""

    max_stages: int = 4
    micro_batch_counts: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)
    group_sizes: tuple[int, ...] | None = None   # None: divisors of world
    enable_bubble_filling: bool = True
    enable_partial_batch: bool = True
    #: registry name of the bubble-filling policy (``greedy`` — the
    #: paper's Algorithms 1+2; ``lookahead`` — cross-bubble DP/beam;
    #: ``none`` — extract bubbles but fill nothing)
    fill_strategy: str = "greedy"
    #: registry name of the pipeline schedule family (see README
    #: "Schedule families").  ``"auto"`` resolves per model: ``onef1b``
    #: for single-backbone models, ``bidirectional`` for cascaded ones.
    #: An explicit name that cannot serve the model (a single-backbone
    #: family on a cascaded model, or vice versa) raises at planner
    #: construction.
    schedule: str = "auto"
    #: beam-width cap of the ``lookahead`` fill strategy; it runs
    #: narrower by default and widens up to this at decision points
    #: (see README "Bubble filling")
    lookahead_beam: int = 64
    min_bubble_ms: float = DEFAULT_MIN_BUBBLE_MS
    partial_batch_menu: tuple[int, ...] = VALID_LOCAL_BATCHES
    heterogeneous_replication: bool = False
    keep_timeline: bool = False
    check_memory: bool = True
    #: stage-boundary granularity for the (quadratic) CDM partitioner;
    #: 1 = exact, 2 halves the transition space for long backbones
    cdm_cut_step: int = 2

    def __post_init__(self) -> None:
        if not (positive_int(self.max_stages) and self.max_stages >= 2):
            raise ConfigurationError(
                f"max_stages must be an integer >= 2, got {self.max_stages!r}"
            )
        if self.group_sizes is not None:
            _check_menu("group_sizes", self.group_sizes, 2)
        _check_menu("micro_batch_counts", self.micro_batch_counts, 1)
        if not all(positive_int(b) for b in self.partial_batch_menu):
            raise ConfigurationError(
                "partial_batch_menu entries must be integers >= 1, got "
                f"{self.partial_batch_menu!r}"
            )
        if not positive_int(self.cdm_cut_step):
            raise ConfigurationError(
                f"cdm_cut_step must be an integer >= 1, got {self.cdm_cut_step!r}"
            )
        if not self.min_bubble_ms >= 0:
            raise ConfigurationError(
                f"min_bubble_ms must be >= 0, got {self.min_bubble_ms!r}"
            )
        if self.fill_strategy not in FILL_STRATEGIES:
            raise ConfigurationError(
                f"unknown fill strategy {self.fill_strategy!r}; "
                f"registered: {fill_strategy_names()}"
            )
        if not positive_int(self.lookahead_beam):
            raise ConfigurationError(
                "lookahead_beam must be an integer >= 1, got "
                f"{self.lookahead_beam!r}"
            )
        from ..schedule import SCHEDULE_FAMILIES

        if self.schedule != "auto" and self.schedule not in SCHEDULE_FAMILIES:
            raise ConfigurationError(
                f"unknown schedule family {self.schedule!r}; "
                f"registered: {('auto',) + schedule_family_names()}"
            )


@dataclass(frozen=True)
class EvaluatedConfig:
    """An :class:`ExecutionPlan` plus optional retained timeline(s)."""

    plan: ExecutionPlan
    timeline: Timeline | None = None
    timeline_sc: Timeline | None = None


class DiffusionPipePlanner:
    """Front-end entry point.

    Parameters
    ----------
    model / cluster:
        The training job.
    profile:
        Pre-computed :class:`ProfileDB`; profiled on the fly when
        omitted (Fig. 7 step 1).
    options:
        Search and ablation knobs.
    caches:
        The :class:`PlannerCaches` this planner reads and writes.  When
        ``None`` the process-wide :func:`default_caches` instance is
        used, so independent planners share warm DP tables, prefix
        arrays and timelines exactly as the old module-level caches
        provided; pass an explicit instance for full isolation (tests,
        ``repro snapshot``, snapshot-seeded workers).
    """

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        profile: ProfileDB | None = None,
        options: PlannerOptions | None = None,
        caches: PlannerCaches | None = None,
    ):
        self.model = model
        self.cluster = cluster
        self.profile = profile or Profiler(cluster).profile(model)
        self.options = options or PlannerOptions()
        self.collectives = CollectiveModel(cluster)
        self.caches = caches if caches is not None else default_caches()
        if len(model.backbone_names) > 2:
            raise ConfigurationError(
                "the planner handles one or two backbones; group larger "
                "cascades with repro.core.partition_cdm.group_backbones first"
            )
        #: resolved schedule family name: ``options.schedule`` with
        #: ``"auto"`` mapped per model shape.
        self.schedule = self._resolve_schedule()
        self._family = get_family(self.schedule)
        if self._family.virtual_stages > 1:
            if self.options.heterogeneous_replication:
                raise ConfigurationError(
                    f"the {self.schedule!r} family replicates every chunk "
                    "of a device identically; heterogeneous replication is "
                    "not supported with chunked schedules"
                )
            if self.cluster.speed_factors:
                raise ConfigurationError(
                    "chunked schedules partition at chunk granularity on a "
                    "virtual device budget, which has no per-device windows "
                    "to scale; per-device speed factors are not supported "
                    "with chunked schedules"
                )

    def _resolve_schedule(self) -> str:
        name = self.options.schedule
        cascaded = len(self.model.backbone_names) == 2
        if name == "auto":
            return "bidirectional" if cascaded else "onef1b"
        family = get_family(name)
        if family.cascaded and not cascaded:
            raise ConfigurationError(
                f"schedule family {name!r} pipelines two backbones; "
                f"model {self.model.name!r} has one (use 'auto' or a "
                "single-backbone family)"
            )
        if cascaded and not family.cascaded:
            raise ConfigurationError(
                f"schedule family {name!r} builds a single backbone; "
                f"cascaded model {self.model.name!r} needs 'bidirectional' "
                "(or 'auto')"
            )
        return name

    # -- search space -------------------------------------------------------------

    def candidate_configs(self, global_batch: float) -> Iterator[tuple[int, int, int]]:
        """Yield feasible (D, S, M) combinations for a global batch.

        A global batch that is not finite and positive raises
        :class:`ConfigurationError` (it is checked on the first
        ``next``, before any configuration is yielded).

        Divisibility is tested exactly, in integers (a batch that is not
        a whole number admits no configuration), so binary-float
        rounding (``global_batch / dp`` is the only inexact step of the
        float formulation) can neither reject a feasible split nor
        admit one whose micro-batches are fractional.
        """
        _check_global_batch(global_batch)
        world = self.cluster.world_size
        opts = self.options
        group_sizes = opts.group_sizes
        if group_sizes is None:
            group_sizes = tuple(d for d in range(2, world + 1) if world % d == 0)
        # Per-stage replica counts apply to both pipeline flavours: the
        # single-backbone (1F1B) DP and the bidirectional CDM DP both
        # implement the general recursion (Eqns. 7-9), so non-divisible
        # (S, D) combos are admissible for cascaded models too.
        het = opts.heterogeneous_replication
        gb = int(global_batch)
        if gb != global_batch:
            return
        for D in group_sizes:
            if D < 2 or D > world or world % D != 0:
                continue
            dp = world // D
            if gb % dp:
                continue
            batch_per_group = gb // dp
            for S in range(2, min(opts.max_stages, D) + 1):
                if not het and D % S != 0:
                    continue
                # Per-replica batch floor: homogeneous replication pins
                # r = D/S, so the micro-batch must cover it; the
                # heterogeneous DPs pick per-stage replicas themselves
                # (capped at floor(micro_batch)), so any micro-batch of
                # at least one sample is admissible.
                r = 1 if het else max(D // S, 1)
                for M in opts.micro_batch_counts:
                    if batch_per_group % M or batch_per_group < M * r:
                        continue
                    yield (D, S, M)

    # -- communication constants ----------------------------------------------------

    def _p2p_costs(self, group_size: int) -> CommCosts:
        """R/L of inter-stage transfers for a pipeline group.

        Groups that fit in a machine use NVSwitch, larger groups EFA.
        """
        key = ("p2p", self.cluster, group_size)
        costs = self.caches.comm.get(key)
        if costs is None:
            link = self.cluster.group_link(list(range(group_size)))
            costs = CommCosts(bandwidth=link.bandwidth, latency=link.latency)
            self.caches.comm.put(key, costs)
        return costs

    def _allreduce_costs(self, group_size: int, stage_replicas: int) -> CommCosts:
        """R/L of a stage's gradient all-reduce.

        A stage's sync group spans its ``r`` replicas inside the group
        and its copies across the ``world/D`` data-parallel groups
        (Fig. 8's layout: groups are contiguous rank blocks).
        """
        key = ("ar", self.cluster, group_size, stage_replicas)
        costs = self.caches.comm.get(key)
        if costs is None:
            dp = self.cluster.world_size // group_size
            ranks = [
                g * group_size + j
                for g in range(dp)
                for j in range(stage_replicas)
            ]
            costs = self.collectives.allreduce_costs(ranks)
            self.caches.comm.put(key, costs)
        return costs

    def _group_speed_scales(self, group_size: int) -> tuple[float, ...] | None:
        """Per-position compute scales of a pipeline group's device chain.

        Position ``j`` of a group replicates on ranks ``{g * D + j}``
        across the ``world/D`` data-parallel groups (Fig. 8's layout:
        groups are contiguous rank blocks), and a stage's step time is
        set by its slowest replica, so the fold across groups is the
        bottleneck (minimum).  Returns ``None`` for clusters without
        speed overrides: the homogeneous value of
        :attr:`PartitionContext.speed_scales`, which keeps DP cache keys
        shared across speed-agnostic callers.
        """
        cluster = self.cluster
        if not cluster.speed_factors:
            return None
        D = group_size
        dp = cluster.world_size // D
        return tuple(
            min(cluster.speed_factor(g * D + j) for g in range(dp))
            for j in range(D)
        )

    # -- evaluation of one configuration ----------------------------------------------

    def _gate(
        self, global_batch: float, D: int, S: int, M: int
    ) -> tuple[tuple[Finalist, ...], float] | None:
        """Partition and memory-check one (D, S, M) configuration.

        Returns ``(finalists, per-group batch)``, or None when no
        finalist is left.  A finalist is a ``(partition, memory report,
        pipeline floor)`` triple, the floor being the closed-form lower
        bound on its ``pipeline_ms`` (:meth:`_pipeline_floor`).  The
        finalists are, in order, the DP's pick and, for a
        heterogeneous planner with ``S | D``, the pinned ``r = D/S``
        partition the uniform planner picks (partitioned from the
        uniform planner's DP table).  Each is dropped
        where it raises :class:`PartitionError`, repeats an earlier
        finalist's chains or does not fit in memory.  Eqn. 12's
        ``T_max`` prices only the bottleneck stage, so the
        heterogeneous pick can simulate slower than the uniform split it
        beats on ``T_max``; :meth:`evaluate` trains the faster finalist,
        so a heterogeneous plan is never slower than the uniform one.

        The finalists are memoised in ``caches.partition`` under the
        partition key tagged ``"gate"``, extended by what the memory
        check and the floor read that the partition key lacks
        (schedule, model and ``check_memory``), so a warm replan neither
        partitions, re-prices memory nor re-derives a floor: the
        closed-form rung of :meth:`plan` costs it this one lookup.  It
        is the only memo of the partitions themselves
        (:meth:`_partition` is not memoised).
        """
        # Float quotient: the cost model (profiling interpolation,
        # schedule times, cache keys) runs on floats throughout, so the
        # plan is evaluated at the nearest-float of the exact per-group
        # batch.  Divisibility of the *true* rational split is certified
        # exactly by candidate_configs; past 2^53 samples the value here
        # can round off that certified integer, which perturbs modeled
        # costs by at most 1 ulp but never feasibility decisions.
        batch_per_group = global_batch / (self.cluster.world_size // D)
        opts = self.options
        key = (
            "gate",
            *self._partition_key(
                batch_per_group, D, S, M,
                heterogeneous=opts.heterogeneous_replication,
            ),
            self.schedule,
            self.model.name,
            opts.check_memory,
        )
        gates = self.caches.partition
        finalists = gates.get(key)
        if finalists is None:
            finalists = self._finalists(batch_per_group, D, S, M)
            gates.put(key, finalists)
        if not finalists:
            return None
        return finalists, batch_per_group

    def _finalists(
        self, batch_per_group: float, D: int, S: int, M: int
    ) -> tuple[Finalist, ...]:
        """:meth:`_gate`'s finalists, partitioned, memory-checked and
        floored."""
        # Deferred import: repro.memory depends on repro.core.plan.
        from ..memory.estimator import pipeline_memory_report

        seen = []
        finalists = []
        for flavour in self._flavours(D, S):
            try:
                partition = self._partition(
                    batch_per_group, D, S, M, heterogeneous=flavour
                )
            except PartitionError:
                continue
            chains = (partition.down, partition.up)
            if chains in seen:
                continue
            seen.append(chains)
            memory = None
            if self.options.check_memory:
                memory = pipeline_memory_report(
                    self.model,
                    partition,
                    # The OOM bound is the smallest device: a plan either
                    # fits everywhere or it does not fit at all.
                    capacity_bytes=self.cluster.min_memory_bytes(),
                    schedule=self.schedule,
                )
                if not memory.fits:
                    continue
            finalists.append((partition, memory, self._pipeline_floor(partition)))
        return tuple(finalists)

    def _flavours(self, D: int, S: int) -> tuple[bool, ...]:
        """The replication flavours (``heterogeneous=`` values) of a
        configuration's finalists, in :meth:`_finalists` order."""
        het = self.options.heterogeneous_replication
        return (True, False) if het and D % S == 0 else (het,)

    def _pipeline_floor(self, partition: PartitionPlan) -> float:
        """Closed-form lower bound on a finalist's ``pipeline_ms``: the
        family's ``floor`` of the very build arguments :meth:`_simulate`
        passes it, mixed plain and self-conditioned as
        :meth:`_finalist_bound` mixes the makespans (the mix is monotone
        under round-to-nearest, so it stays below theirs)."""
        stages, _, passes = self._passes(partition)
        M = partition.num_micro_batches
        floors = [self._family.floor(stages, M, **args) for args in passes.values()]
        if len(floors) == 1:
            return floors[0]
        return _expected(self.model.self_conditioning_prob, *floors)

    def _closed_form(
        self, global_batch: float, D: int, S: int, M: int
    ) -> float | None:
        """Upper bound on :meth:`_bound` from the finalists' closed-form
        pipeline floors instead of their simulations: the largest
        finalist's ``samples / floor``.  None where :meth:`evaluate`
        returns None.  The closed-form rung of :meth:`plan`'s ladder;
        the floors come with the finalists from the :meth:`_gate` memo,
        so a warm replan pays no extra lookup for this rung."""
        gated = self._gate(global_batch, D, S, M)
        if gated is None:
            return None
        finalists, _ = gated
        return max(
            _throughput_bound(global_batch, partition, floor)
            for partition, _, floor in finalists
        )

    def _bound(self, global_batch: float, D: int, S: int, M: int) -> float | None:
        """Upper bound on the throughput :meth:`evaluate` reports for a
        configuration, from its finalists' simulated timelines alone (no
        filling): the largest finalist's ``samples / pipeline_ms``.  None
        where :meth:`evaluate` returns None.  The simulated rung of
        :meth:`plan`'s ladder, which :meth:`_floor` and
        :meth:`_closed_form` bound from above.

        ``compose_iteration`` sets ``iteration_ms = pipeline_ms +
        leftover_ms`` with ``leftover_ms >= 0``; the self-conditioning
        expectation, the division and the ``1e3`` scale are each
        monotone under round-to-nearest.  A finalist's pipeline term
        here is the very expression :meth:`evaluate` reports as its
        ``pipeline_ms``, on the same memoised timelines, so each
        finalist's bound holds bit for bit, and their maximum bounds the
        finalist :meth:`evaluate` returns.
        """
        gated = self._gate(global_batch, D, S, M)
        if gated is None:
            return None
        finalists, batch_per_group = gated
        return max(
            self._finalist_bound(global_batch, partition, batch_per_group)
            for partition, _, _ in finalists
        )

    def _finalist_bound(
        self, global_batch: float, partition: PartitionPlan, batch_per_group: float
    ) -> float:
        pipeline_ms = self._simulate(partition, batch_per_group, sc=False).makespan
        if self.model.self_conditioning and not partition.is_bidirectional:
            pipeline_ms = _expected(
                self.model.self_conditioning_prob,
                pipeline_ms,
                self._simulate(partition, batch_per_group, sc=True).makespan,
            )
        return _throughput_bound(global_batch, partition, pipeline_ms)

    def _floor(self, global_batch: float, D: int, S: int, M: int) -> float | None:
        """Upper bound on :meth:`_bound` from the pre-partition makespan
        floor (:func:`~.partition_cdm.cdm_makespan_floor` for a
        bidirectional configuration,
        :func:`~.partition.backbone_makespan_floor` for a single
        backbone) instead of a partition and a simulation; None where
        no partition exists.  The first rung of :meth:`plan`'s ladder.

        ``samples / floor · 1e3`` with ``floor <= pipeline_ms`` (the
        floor gives up its stated margin to summation order) is at least
        ``samples / pipeline_ms · 1e3`` under round-to-nearest.  The
        floor covers every finalist: the heterogeneous lattice contains
        each pinned ``r = D/S`` partition (same cut grid, ``r`` within
        the replica cap, position ``k`` on devices ``[k·r, (k+1)·r)``).
        A single-backbone configuration whose finalists' DP tables are
        all memoised takes the trivial floor 0, bound ``+inf``
        (:meth:`_floor_uncached`).  The floor is memoised in
        ``caches.partition`` under the partition key tagged ``"floor"``
        and extended by the schedule family, whose
        flags the floor reads beyond the partition key (zero-bubble
        shares the partition mode of 1F1B under self-conditioning, but
        its split-backward path is shorter), so a warm replan reads it
        back instead of refolding the lattice.
        """
        batch_per_group = global_batch / (self.cluster.world_size // D)
        het = self.options.heterogeneous_replication
        key = (
            "floor",
            *self._partition_key(batch_per_group, D, S, M, heterogeneous=het),
            self.schedule,
        )
        floors = self.caches.partition
        floor = floors.get(key)
        if floor is None:
            try:
                floor = self._floor_uncached(batch_per_group, D, S, M)
            except PartitionError as err:
                # A stripped copy: caching the live exception would pin
                # its __traceback__ (and every frame's locals) for the
                # cache's lifetime.
                floor = PartitionError(*err.args)
            floors.put(key, floor)
        if isinstance(floor, PartitionError):
            return None
        if not floor > 0:
            return math.inf
        cascaded = len(self.model.backbone_names) == 2
        return global_batch * (2 if cascaded else 1) / floor * 1e3

    def _floor_uncached(
        self, batch_per_group: float, D: int, S: int, M: int
    ) -> float:
        """The pre-partition makespan floor; the trivial floor 0 (bound
        ``+inf``) for a single-backbone configuration whose finalists'
        DP tables are all memoised: partitioning it then reads tables,
        which a floor would only add to, so a snapshot-restored sweep
        folds no lattice it can partition from memo."""
        het = self.options.heterogeneous_replication
        if len(self.model.backbone_names) == 2:
            return cdm_makespan_floor(
                self._cdm_context(batch_per_group, D, M),
                S,
                D,
                cut_step=self.options.cdm_cut_step,
                heterogeneous=het,
                caches=self.caches,
            )
        ctx = self._backbone_context(batch_per_group, D, M)
        if all(
            backbone_table_served(
                ctx, S, D, heterogeneous=flavour, caches=self.caches
            )
            for flavour in self._flavours(D, S)
        ):
            return 0.0
        return backbone_makespan_floor(
            ctx,
            S,
            D,
            heterogeneous=het,
            split_backward=self._family.splits_backward,
            comm_scale=self._family.comm_scale,
            caches=self.caches,
        )

    def evaluate(
        self, global_batch: float, group_size: int, num_stages: int, num_micro: int
    ) -> EvaluatedConfig | None:
        """Fully evaluate one (D, S, M) configuration: partition, memory
        check, simulate, bubble filling and composition.

        Every finalist of the configuration (see :meth:`_gate`) is
        filled, and the first one of maximum throughput is returned.
        The configuration is filled whether or not :meth:`plan` would
        have skipped it, so the returned metrics are exact for every
        configuration.  Returns None when no feasible partition exists
        or no finalist fits in memory.

        Raises :class:`ConfigurationError` up front for a global batch
        that is not finite and positive, a group size, stage count or
        micro-batch count that is not a positive integer, a group size
        that does not divide the world, and a per-group batch or
        micro-batch that is not a whole number of samples (tested
        exactly, as in :meth:`candidate_configs`).
        """
        D, S, M = group_size, num_stages, num_micro
        self._check_config(global_batch, D, S, M)
        gated = self._gate(global_batch, D, S, M)
        if gated is None:
            return None
        finalists, batch_per_group = gated
        best: EvaluatedConfig | None = None
        for partition, memory, _ in finalists:
            ev = self._evaluate_finalist(
                global_batch, partition, memory, batch_per_group
            )
            if best is None or ev.plan.throughput > best.plan.throughput:
                best = ev
        return best

    def _check_config(self, global_batch: float, D: int, S: int, M: int) -> None:
        _check_global_batch(global_batch)
        for name, value in (("group_size", D), ("num_stages", S), ("num_micro", M)):
            if not positive_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        world = self.cluster.world_size
        if world % D:
            raise ConfigurationError(
                f"group size {D} does not divide world size {world}"
            )
        dp, gb = world // D, int(global_batch)
        if gb != global_batch or gb % dp:
            name, samples = "per-group batch", global_batch / dp
        elif gb // dp % M:
            name, samples = "micro-batch", gb // dp / M
        else:
            return
        raise ConfigurationError(
            f"global batch {global_batch!r} at D={D}, M={M} gives a "
            f"{name} of {float(samples):g} samples, not a whole number"
        )

    def _evaluate_finalist(
        self,
        global_batch: float,
        partition: PartitionPlan,
        memory: MemoryReport | None,
        batch_per_group: float,
    ) -> EvaluatedConfig:
        D = partition.group_size
        dp = self.cluster.world_size // D
        nt_total = nt_serial_ms(self.model, self.profile, batch_per_group, D)

        if self.model.self_conditioning and not partition.is_bidirectional:
            ev_plain = self._simulate_and_fill(
                partition, batch_per_group, sc=False, nt_total=nt_total
            )
            ev_sc = self._simulate_and_fill(
                partition, batch_per_group, sc=True, nt_total=nt_total
            )
            p = self.model.self_conditioning_prob
            plain, sc = ev_plain[0], ev_sc[0]
            iteration = _expected(p, plain.iteration_ms, sc.iteration_ms)
            ratio_unfilled = _expected(
                p, plain.bubble_ratio_unfilled, sc.bubble_ratio_unfilled
            )
            ratio_filled = _expected(
                p, plain.bubble_ratio_filled, sc.bubble_ratio_filled
            )
            pipeline_ms = _expected(p, plain.pipeline_ms, sc.pipeline_ms)
            leftover = _expected(p, plain.leftover_ms, sc.leftover_ms)
            fill = ev_plain[1]
            timeline, timeline_sc = ev_plain[2], ev_sc[2]
        else:
            est, fill, timeline = self._simulate_and_fill(
                partition, batch_per_group, sc=False, nt_total=nt_total
            )
            iteration = est.iteration_ms
            ratio_unfilled = est.bubble_ratio_unfilled
            ratio_filled = est.bubble_ratio_filled
            pipeline_ms = est.pipeline_ms
            leftover = est.leftover_ms
            timeline_sc = None

        samples_per_iter = _samples_per_iter(global_batch, partition)
        throughput = samples_per_iter / iteration * 1e3  # samples/s

        plan = ExecutionPlan(
            model_name=self.model.name,
            partition=partition,
            schedule=self.schedule,
            data_parallel_degree=dp,
            global_batch=global_batch,
            pipeline_ms=pipeline_ms,
            leftover_ms=leftover,
            iteration_ms=iteration,
            throughput=throughput,
            bubble_ratio_unfilled=ratio_unfilled,
            bubble_ratio_filled=ratio_filled,
            fill=fill,
            memory=memory,
        )
        return EvaluatedConfig(
            plan=plan,
            timeline=timeline if self.options.keep_timeline else None,
            timeline_sc=timeline_sc if self.options.keep_timeline else None,
        )

    # -- planning ----------------------------------------------------------------------

    def candidate_plans(self, global_batch: float) -> list[EvaluatedConfig]:
        """Fully :meth:`evaluate` every feasible configuration, in
        :meth:`candidate_configs` order.

        Exhaustive — nothing is skipped — for sweeps, figures and tests
        that read every configuration; :meth:`plan` returns the first
        maximum-throughput entry of this list without filling them all.
        """
        out = []
        for D, S, M in self.candidate_configs(global_batch):
            ev = self.evaluate(global_batch, D, S, M)
            if ev is not None:
                out.append(ev)
        return out

    def plan(self, global_batch: float) -> EvaluatedConfig:
        """Pick the highest-throughput configuration (Fig. 7 step 5).

        Bound ladder, bit-identical to the first maximum of
        :meth:`candidate_plans`.  Every configuration enters a heap
        keyed ``(bound, -index)``, ``index`` being its position in
        :meth:`candidate_configs`, and climbs one rung per pop:

        1. *floor* — configurations of a family with one stage per
           device (every family but the chunked ``interleaved``) enter
           with the pre-partition makespan floor's bound
           (:meth:`_floor`): no DP has run for them yet.  A
           single-backbone configuration whose DP tables are all
           memoised enters with ``+inf`` instead and climbs straight
           to the closed-form rung;
        2. *closed form* — partition and memory-check the
           configuration's finalists (:meth:`_gate`), giving the best
           finalist's ``samples / floor`` from the closed-form floor of
           its pipeline (:meth:`_closed_form`); chunked configurations,
           whose DP runs on a virtual ``v·D`` device budget, enter
           here;
        3. *simulated* — simulate the finalists, giving the best
           finalist's ``samples / pipeline_ms`` (:meth:`_bound`);
        4. *filled* — :meth:`evaluate` fills every finalist; the best
           throughput competes for the incumbent.

        The search stops at the first pop whose ``(bound, -index)`` is
        no better than the incumbent's ``(throughput, -index)``: every
        rung bounds the throughput from above, so neither that
        configuration nor any left in the heap can beat, or tie ahead
        of, the incumbent.  Only the partition DPs, simulations and
        fills of configurations that cannot win are skipped.
        """
        rungs = (self._floor, self._closed_form, self._bound)
        enter = 0 if self._family.virtual_stages == 1 else 1
        heap = []
        for index, config in enumerate(self.candidate_configs(global_batch)):
            bound = rungs[enter](global_batch, *config)
            if bound is not None:
                heap.append((-bound, index, enter, config))
        heapq.heapify(heap)
        best: EvaluatedConfig | None = None
        best_key: tuple[float, int] | None = None
        while heap:
            neg_bound, index, rung, config = heapq.heappop(heap)
            if best_key is not None and (-neg_bound, -index) <= best_key:
                break
            if rung + 1 < len(rungs):
                bound = rungs[rung + 1](global_batch, *config)
                if bound is not None:
                    heapq.heappush(heap, (-bound, index, rung + 1, config))
                continue
            ev = self.evaluate(global_batch, *config)
            assert ev is not None  # the gate admitted it
            key = (ev.plan.throughput, -index)
            if best_key is None or key > best_key:
                best, best_key = ev, key
        if best is None:
            raise ConfigurationError(
                f"no feasible configuration for global batch {global_batch} "
                f"on {self.cluster.world_size} devices"
            )
        return best

    # -- internals -----------------------------------------------------------------------

    @property
    def _partition_mode(self) -> tuple:
        """Partition-relevant identity of the schedule family.

        Families with identical partition semantics (onef1b, gpipe,
        bidirectional; zerobubble under self-conditioning, where the
        B/W pricing refinement is disabled) share partition cache
        entries; only chunked granularity (with its chunks per device,
        which the DP's objective reads) and zero-bubble pricing change
        the DP's inputs.
        """
        if self._family.virtual_stages > 1:
            return ("chunked", self._family.virtual_stages)
        if self._family.splits_backward and not self.model.self_conditioning:
            return ("zerobubble",)
        return ("default",)

    def _partition_key(
        self, batch_per_group: float, D: int, S: int, M: int, *,
        heterogeneous: bool,
    ) -> tuple:
        return (
            # Weak profile identity (see _simulate_and_fill): planners
            # sharing one PlannerCaches across re-profiled models must
            # not reuse stale partitions.
            weakref.ref(self.profile),
            self.cluster,
            batch_per_group,
            D,
            S,
            M,
            self.model.self_conditioning,
            self.model.self_conditioning_prob,
            self.model.backbone_names,
            heterogeneous,
            self.options.cdm_cut_step,
            self._partition_mode,
        )

    def _partition(
        self, batch_per_group: float, D: int, S: int, M: int, *,
        heterogeneous: bool,
    ) -> PartitionPlan:
        """The partition DP's pick for one configuration under the given
        replication flavour (``heterogeneous=False`` pins ``r = D/S``).
        Not memoised: the :meth:`_gate` memo holds every finalist, and
        ``caches.het`` / ``caches.cdm`` the DP tables it reads."""
        if len(self.model.backbone_names) == 2:
            return partition_cdm(
                self._cdm_context(batch_per_group, D, M),
                S,
                D,
                cut_step=self.options.cdm_cut_step,
                heterogeneous=heterogeneous,
                caches=self.caches,
            )
        ctx = self._backbone_context(batch_per_group, D, M)
        # A family with v = virtual_stages > 1 partitions at CHUNK
        # granularity: the layer chain is cut into v*S consecutive
        # chunks and its chains place chunk c on device c mod S, so
        # each device hosts v non-contiguous chunks.  Running the DP
        # with v*S stages on a virtual v*D budget keeps the homogeneous
        # replica count at r = D/S per chunk (such a planner rejects
        # heterogeneous replication) while p2p and all-reduce constants
        # stay priced from the real group (see _context).  Each device
        # runs its v chunks on every micro-batch, so the DP's objective
        # is (v*M + 2vS - 2)*w + y: v*M steady chunk slots, and a ramp
        # coefficient that over-counts the schedule's shorter per-chunk
        # ramps, which only biases *which* cut it prefers — final
        # throughput always comes from simulating the real chunk chain.
        v = self._family.virtual_stages
        plan = partition_backbone(
            ctx, S * v, D * v, heterogeneous=heterogeneous, caches=self.caches,
            chunks=v,
        )
        return replace(plan, group_size=D)

    def _context(
        self, batch_per_group: float, D: int, M: int, component: str, **fields
    ) -> PartitionContext:
        """The partition DPs' inputs for one backbone of a (D, M)
        configuration; ``fields`` sets the self-conditioning and pricing
        fields of single-backbone contexts."""
        return PartitionContext(
            profile=self.profile,
            component=component,
            batch_per_group=batch_per_group,
            num_micro_batches=M,
            p2p=self._p2p_costs(D),
            # Per-replica-count sync model: entry r-1 prices the
            # all-reduce of a stage with r replicas, so the Y term prices
            # Eqn. 4 faithfully for every candidate replica count.  The
            # tuple is its own DP memo key, so an elastic replan on a
            # different cluster identity (a machine left and rejoined)
            # warm-hits every table whose sync constants are genuinely
            # unchanged.
            allreduce=tuple(self._allreduce_costs(D, r) for r in range(1, D + 1)),
            speed_scales=self._group_speed_scales(D),
            **fields,
        )

    def _cdm_context(
        self, batch_per_group: float, D: int, M: int
    ) -> CDMPartitionContext:
        down, up = self.model.backbone_names
        ctx_down = self._context(batch_per_group, D, M, down)
        return CDMPartitionContext(
            down=ctx_down, up=replace(ctx_down, component=up)
        )

    def _backbone_context(
        self, batch_per_group: float, D: int, M: int
    ) -> PartitionContext:
        """The single-backbone partition DP's inputs for a (D, M)
        configuration, which its pre-partition floor reads too."""
        return self._context(
            batch_per_group,
            D,
            M,
            self.model.backbone_names[0],
            self_conditioning=self.model.self_conditioning,
            self_conditioning_prob=self.model.self_conditioning_prob,
            pricing=(
                "zerobubble"
                if self._partition_mode[0] == "zerobubble"
                else "default"
            ),
        )

    def _simulate_and_fill(
        self,
        partition: PartitionPlan,
        batch_per_group: float,
        *,
        sc: bool,
        nt_total: float,
    ):
        opts = self.options
        eval_key = (
            partition.down,
            partition.up,
            partition.num_micro_batches,
            partition.group_size,
            batch_per_group,
            sc,
            nt_total,
            # The full ClusterSpec (a frozen value type), matching the
            # partition/comm keys: same-world-size planners on different
            # interconnects must not alias each other's timelines.
            self.cluster,
            # Identity of the inputs the cached result was computed
            # from: stage times come from the profile, filler layers
            # from the model.  The per-instance predecessor of this
            # memo could never alias across profiles; the shared one
            # must not either (ModelSpec is unhashable, so its name
            # stands in — profiles are per-model in practice).  A weak
            # reference, so cache keys never pin a retired ProfileDB
            # (and with it the per-profile DP tables that are meant to
            # die with the profile); a dead ref only ever equals
            # itself, so stale entries are inert until evicted.
            weakref.ref(self.profile),
            self.model.name,
            # Filling knobs: planners sharing one PlannerCaches (e.g.
            # the Fig. 15 ablation variants) differ only in these, so
            # they are part of the key rather than a sharing hazard.
            opts.enable_bubble_filling,
            opts.enable_partial_batch,
            opts.fill_strategy,
            opts.lookahead_beam,
            opts.min_bubble_ms,
            opts.partial_batch_menu,
            # The schedule family the timeline is built under; the
            # chunk granularity is already encoded in partition.down.
            self.schedule,
        )
        evals = self.caches.evals
        hit = evals.get(eval_key)
        if hit is not None:
            return hit
        result = self._simulate_and_fill_uncached(
            partition, batch_per_group, sc=sc, nt_total=nt_total
        )
        evals.put(eval_key, result)
        return result

    def _simulate_and_fill_uncached(
        self,
        partition: PartitionPlan,
        batch_per_group: float,
        *,
        sc: bool,
        nt_total: float,
    ):
        timeline = self._simulate(partition, batch_per_group, sc=sc)
        fill: FillReport | None = None
        bubbles = None
        if self.options.enable_bubble_filling:
            bubbles = extract_bubbles(
                timeline,
                min_duration_ms=self.options.min_bubble_ms,
                include_sync_spans=True,
            )
            filler = BubbleFiller(
                self.profile,
                self.model,
                batch_per_group,
                enable_partial_batch=self.options.enable_partial_batch,
                partial_batch_menu=self.options.partial_batch_menu,
                strategy=self.options.fill_strategy,
                lookahead_beam=self.options.lookahead_beam,
                fill_cache=self.caches.fills,
                caches=self.caches,
                schedule=self.schedule,
            )
            fill = filler.fill(bubbles, leftover_devices=partition.group_size)

        est = compose_iteration(
            timeline,
            fill,
            nt_total,
            total_devices=partition.group_size,
            bubbles=bubbles,
        )
        return est, fill, timeline

    def _simulate(
        self, partition: PartitionPlan, batch_per_group: float, *, sc: bool
    ) -> Timeline:
        """The simulated (unfilled) pipeline timeline of a partition.

        Memoised in ``caches.evals`` under the simulate-and-fill key
        without the NT time and the filling knobs — partition-level
        fields only, so a hit costs no stage-exec derivation.  The
        simulated rung and the fill of :meth:`plan`, and planners that
        differ only in their filling options, share one timeline per
        configuration.  Every caller of a self-conditioned
        single-backbone partition reads both its plain and its
        self-conditioned timeline, so a miss stores every pass of
        :meth:`_passes`, from one stage chain.
        """

        def key(flag: bool) -> tuple:
            return (
                "simulate",
                partition.down,
                partition.up,
                partition.num_micro_batches,
                partition.group_size,
                batch_per_group,
                flag,
                self.cluster,
                weakref.ref(self.profile),
                self.model.name,
                self.schedule,
            )

        evals = self.caches.evals
        timeline = evals.get(key(sc))
        if timeline is None:
            stages, weights, passes = self._passes(partition, sc=sc)
            for flag, build_args in passes.items():
                simulated = self._timeline(partition, stages, build_args, weights)
                evals.put(key(flag), simulated)
                if flag == sc:
                    timeline = simulated
        return timeline

    def _timeline(
        self,
        partition: PartitionPlan,
        stages: list[StageExec],
        build_args: dict,
        weights: dict[int, int],
    ) -> Timeline:
        """Simulate the family's build of ``stages`` and ``build_args``,
        memoised in ``caches.timelines`` by every input of the build."""
        M = partition.num_micro_batches
        # A bidirectional build is keyed by its up chain's execs, a
        # single-chain build by its self-conditioning arguments.
        args_key = (
            (tuple(build_args["up"]), M)
            if partition.is_bidirectional
            else (M, build_args["self_conditioning"], build_args["feedback_ms"])
        )
        tl_key = (
            self.schedule,
            tuple(stages),
            *args_key,
            partition.num_stages,
            tuple(weights.items()),
        )
        timeline = self.caches.timelines.get(tl_key)
        if timeline is None:
            tasks = self._family.build(stages, M, **build_args)
            timeline = simulate(tasks, len(weights), weights)
            self.caches.timelines.put(tl_key, timeline)
        return timeline

    def _build_args(
        self, partition: PartitionPlan, *, sc: bool
    ) -> tuple[list[StageExec], dict, dict[int, int]]:
        """:func:`lower_partition` of a partition on this planner's
        family and cluster: the group's p2p and all-reduce constants and
        its speed scales."""
        D = partition.group_size

        def sync_ms(replicas: int, grad_bytes: float) -> float:
            ar = self._allreduce_costs(D, replicas)
            return grad_bytes / ar.bandwidth + ar.latency

        return lower_partition(
            self._family,
            partition,
            self.profile,
            p2p=self._p2p_costs(D),
            sync_ms=sync_ms,
            speed_factors=self._group_speed_scales(D),
            self_conditioning=sc,
        )

    def _passes(
        self, partition: PartitionPlan, *, sc: bool = False
    ) -> tuple[list[StageExec], dict[int, int], dict[bool, dict]]:
        """A partition's stage chain, device weights and build keywords
        per pass (``{self-conditioned: keywords}``), from one
        :meth:`_build_args`: a self-conditioned single-backbone
        partition runs a plain and a self-conditioned pass, in that
        order; any other partition the pass ``sc`` alone."""
        both = self.model.self_conditioning and not partition.is_bidirectional
        stages, build_args, weights = self._build_args(partition, sc=sc or both)
        if not both:
            return stages, weights, {sc: build_args}
        plain = {**build_args, "self_conditioning": False, "feedback_ms": 0.0}
        return stages, weights, {False: plain, True: build_args}
