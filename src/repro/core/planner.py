"""The DiffusionPipe planner: Fig. 7's front-end, steps 2-5.

Given a model, a cluster and a global batch size, the planner sweeps the
pipeline hyper-parameters of Table 3 — stage count ``S``, micro-batch
count ``M`` and pipeline-group size ``D`` (world = D x data-parallel
degree) — and for each feasible combination:

1. runs the dynamic-programming partitioner (§4) for the backbone(s);
2. builds the configured schedule family — FIFO-1F1B by default,
   bidirectional for cascaded models, or any other registered
   :class:`~repro.schedule.families.ScheduleFamily` (``gpipe``,
   ``interleaved``, ``zerobubble``) via ``PlannerOptions.schedule`` —
   and simulates it on the cluster model;
3. extracts pipeline bubbles and fills them with the non-trainable
   part under cross-iteration pipelining (§5, §3.2);
4. estimates the steady-state iteration time and checks device memory;

and finally returns the configuration with the highest throughput.
:meth:`DiffusionPipePlanner.plan` fills only the configurations whose
unfilled-makespan throughput bound can still beat the best plan found
so far; :meth:`~DiffusionPipePlanner.candidate_plans` evaluates them all.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from ..cluster.collectives import CollectiveModel, CommCosts
from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError, PartitionError
from ..models.graph import ModelSpec
from ..profiling.profiler import Profiler
from ..profiling.records import ProfileDB
from ..schedule import get_family, schedule_family_names
from ..schedule.simulator import simulate
from ..schedule.stages import StageExec
from ..schedule.timeline import Timeline
from .bubbles import DEFAULT_MIN_BUBBLE_MS, extract_bubbles
from .caches import CacheStats, PlannerCaches, default_caches
from .cross_iteration import compose_iteration
from .fill_strategies import FILL_STRATEGIES, fill_strategy_names
from .filling import VALID_LOCAL_BATCHES, BubbleFiller, FillShapeCache
from .partition import PartitionContext, partition_backbone
from .partition_cdm import CDMPartitionContext, partition_cdm
from .plan import (
    ExecutionPlan,
    FillReport,
    MemoryReport,
    PartitionPlan,
    StageAssignment,
)

__all__ = [
    "PlannerOptions",
    "EvaluatedConfig",
    "PlannerCaches",
    "CacheStats",
    "FillShapeCache",
    "default_caches",
    "DiffusionPipePlanner",
]


def _expected(p: float, plain: float, sc: float) -> float:
    """Self-conditioning expectation: a step takes the extra forward
    pass with probability ``p``."""
    return (1 - p) * plain + p * sc


def _samples_per_iter(global_batch: float, partition: PartitionPlan) -> float:
    """Samples trained per iteration; a bidirectional plan trains both
    backbones on the batch."""
    return global_batch * (2 if partition.is_bidirectional else 1)


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
    #: chunks per device of the ``interleaved`` family (Megatron's
    #: ``v``); ignored by every other family
    virtual_stages: int = 2
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
        if self.max_stages < 2:
            raise ConfigurationError("max_stages must be at least 2")
        if not self.micro_batch_counts:
            raise ConfigurationError("micro_batch_counts must be non-empty")
        if self.fill_strategy not in FILL_STRATEGIES:
            raise ConfigurationError(
                f"unknown fill strategy {self.fill_strategy!r}; "
                f"registered: {fill_strategy_names()}"
            )
        if self.lookahead_beam < 1:
            raise ConfigurationError("lookahead_beam must be at least 1")
        from ..schedule import SCHEDULE_FAMILIES

        if self.schedule != "auto" and self.schedule not in SCHEDULE_FAMILIES:
            raise ConfigurationError(
                f"unknown schedule family {self.schedule!r}; "
                f"registered: {('auto',) + schedule_family_names()}"
            )
        if self.virtual_stages < 2:
            raise ConfigurationError(
                "virtual_stages must be at least 2 (one chunk per device "
                "is plain 1F1B — use schedule='onef1b')"
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
        services with per-tenant stores).
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
        if self._family.chunked and self.options.heterogeneous_replication:
            raise ConfigurationError(
                "the 'interleaved' family replicates every chunk of a "
                "device identically; heterogeneous replication is not "
                "supported with chunked schedules"
            )
        if self._family.chunked and self.cluster.speed_factors:
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

        Divisibility is tested exactly: the batch enters as a
        :class:`~fractions.Fraction` and the per-group quotient stays
        rational, so binary-float rounding (``global_batch / dp`` is the
        only inexact step of the float formulation) can neither reject a
        feasible split nor admit one whose micro-batches are fractional.
        """
        world = self.cluster.world_size
        opts = self.options
        group_sizes = opts.group_sizes or tuple(
            d for d in range(2, world + 1) if world % d == 0
        )
        # Per-stage replica counts apply to both pipeline flavours: the
        # single-backbone (1F1B) DP and the bidirectional CDM DP both
        # implement the general recursion (Eqns. 7-9), so non-divisible
        # (S, D) combos are admissible for cascaded models too.
        het = opts.heterogeneous_replication
        gb = Fraction(global_batch)
        for D in group_sizes:
            if D < 2 or D > world or world % D != 0:
                continue
            dp = world // D
            if gb % dp:
                continue
            batch_per_group = gb / dp
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
                    if batch_per_group % M:
                        continue
                    if batch_per_group / (M * r) < 1:
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
        speed overrides, keeping every partition DP and stage-exec
        build on the unscaled code path byte-for-byte.
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
    ) -> tuple[PartitionPlan, MemoryReport | None, float] | None:
        """Partition and memory-check one (D, S, M) configuration.

        Returns ``(partition, memory report, per-group batch)``, or None
        when no feasible partition exists or the plan does not fit in
        memory.
        """
        world = self.cluster.world_size
        if world % D != 0:
            raise ConfigurationError(f"group size {D} !| world {world}")
        dp = world // D
        # Float quotient: the cost model (profiling interpolation,
        # schedule times, cache keys) runs on floats throughout, so the
        # plan is evaluated at the nearest-float of the exact per-group
        # batch.  Divisibility of the *true* rational split is certified
        # exactly by candidate_configs; past 2^53 samples the value here
        # can round off that certified integer, which perturbs modeled
        # costs by at most 1 ulp but never feasibility decisions.
        batch_per_group = global_batch / dp

        try:
            partition = self._partition(batch_per_group, D, S, M)
        except PartitionError:
            return None

        memory = None
        if self.options.check_memory:
            # Deferred import: repro.memory depends on repro.core.plan.
            from ..memory.estimator import pipeline_memory_report

            memory = pipeline_memory_report(
                self.model,
                partition,
                # The OOM bound is the smallest device: a plan either
                # fits everywhere or it does not fit at all.
                capacity_bytes=self.cluster.min_memory_bytes(),
                schedule=self.schedule,
                virtual_stages=(
                    self.options.virtual_stages if self._family.chunked else 1
                ),
            )
            if not memory.fits:
                return None
        return partition, memory, batch_per_group

    def _bound(self, global_batch: float, D: int, S: int, M: int) -> float | None:
        """Upper bound on the throughput :meth:`evaluate` reports for a
        configuration, from its simulated timelines alone (no filling);
        None where :meth:`evaluate` returns None.

        ``compose_iteration`` sets ``iteration_ms = pipeline_ms +
        leftover_ms`` with ``leftover_ms >= 0``; the self-conditioning
        expectation, the division and the ``1e3`` scale are each
        monotone under round-to-nearest.  The pipeline term here is the
        very expression :meth:`evaluate` reports as ``pipeline_ms``, on
        the same memoised timelines, so the bound holds bit for bit.
        """
        gated = self._gate(global_batch, D, S, M)
        if gated is None:
            return None
        partition, _, batch_per_group = gated
        pipeline_ms = self._simulate(partition, batch_per_group, sc=False).makespan
        if self.model.self_conditioning and not partition.is_bidirectional:
            pipeline_ms = _expected(
                self.model.self_conditioning_prob,
                pipeline_ms,
                self._simulate(partition, batch_per_group, sc=True).makespan,
            )
        if not pipeline_ms > 0:
            return math.inf
        return _samples_per_iter(global_batch, partition) / pipeline_ms * 1e3

    def evaluate(
        self, global_batch: float, group_size: int, num_stages: int, num_micro: int
    ) -> EvaluatedConfig | None:
        """Fully evaluate one (D, S, M) configuration: partition, memory
        check, simulate, bubble filling and composition.

        The configuration is filled whether or not :meth:`plan` would
        have skipped it, so the returned metrics are exact for every
        configuration.  Returns None when no feasible partition exists
        or the plan does not fit in memory.
        """
        D = group_size
        gated = self._gate(global_batch, D, num_stages, num_micro)
        if gated is None:
            return None
        partition, memory, batch_per_group = gated
        dp = self.cluster.world_size // D
        nt_total = self._nt_serial_ms(batch_per_group, D)

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

        Bound-and-skip search, bit-identical to the first maximum of
        :meth:`candidate_plans`:

        1. *bound pass* — partition, memory-check and simulate every
           feasible configuration, giving each a throughput upper bound
           ``samples / pipeline_ms`` (:meth:`_bound`);
        2. *fill pass* — :meth:`evaluate` configurations in descending
           ``(bound, -index)`` order, ``index`` being the position in
           :meth:`candidate_configs`, and stop at the first whose
           ``(bound, -index)`` is no better than the incumbent's
           ``(throughput, -index)``: neither it nor any later
           configuration can beat, or tie ahead of, the incumbent.

        Only the bubble filling (the dominant phase) of configurations
        that cannot win is skipped.
        """
        bounded = []
        for index, (D, S, M) in enumerate(self.candidate_configs(global_batch)):
            bound = self._bound(global_batch, D, S, M)
            if bound is not None:
                bounded.append((-bound, index, D, S, M))
        bounded.sort()
        best: EvaluatedConfig | None = None
        best_key: tuple[float, int] | None = None
        for neg_bound, index, D, S, M in bounded:
            if best_key is not None and (-neg_bound, -index) <= best_key:
                break
            ev = self.evaluate(global_batch, D, S, M)
            assert ev is not None  # the bound pass gated it
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
        entries; only chunked granularity and zero-bubble pricing
        change the DP's inputs.
        """
        if self._family.chunked:
            return ("chunked", self.options.virtual_stages)
        if self._family.splits_backward and not self.model.self_conditioning:
            return ("zerobubble",)
        return ("default",)

    def _partition(
        self, batch_per_group: float, D: int, S: int, M: int
    ) -> PartitionPlan:
        key = (
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
            self.options.heterogeneous_replication,
            self.options.cdm_cut_step,
            self._partition_mode,
        )
        partitions = self.caches.partition
        hit = partitions.get(key)
        if hit is not None:
            if isinstance(hit, PartitionError):
                # Raise a fresh instance: re-raising the cached one would
                # keep appending propagation frames to its __traceback__,
                # pinning frames for the cache's lifetime.
                raise PartitionError(*hit.args)
            return hit
        try:
            plan = self._partition_uncached(batch_per_group, D, S, M)
        except PartitionError as err:
            # Store a stripped copy: caching the live exception would pin
            # its __traceback__ (and every frame's locals) for the
            # cache's lifetime.
            partitions.put(key, PartitionError(*err.args))
            raise
        partitions.put(key, plan)
        return plan

    def _partition_uncached(
        self, batch_per_group: float, D: int, S: int, M: int
    ) -> PartitionPlan:
        p2p = self._p2p_costs(D)
        # Per-replica-count sync model: the DPs resolve every candidate
        # stage's all-reduce constants through this callback, so the Y
        # term prices Eqn. 4 faithfully for each replica count instead
        # of reusing one representative pair.  The key names the
        # callback's constants — (cluster, D) determine the sync group
        # of every r — standing in for the (unhashable) callable in the
        # per-profile DP memo keys.
        ar_by_r = lambda r: self._allreduce_costs(D, r)  # noqa: E731
        # Content-based resolver identity: the key names the constants
        # the callback can actually resolve (one CommCosts per replica
        # count) rather than the cluster object that produced them.  An
        # elastic replan on a different cluster identity (a machine
        # left and rejoined) then warm-hits every DP table whose sync
        # constants are genuinely unchanged, instead of missing on an
        # incidental cluster field.
        ar_key = ("ar-resolved", D, tuple(ar_by_r(r) for r in range(1, D + 1)))
        # Flat-pair fallback, unread while the resolver is set: every
        # cost path resolves through allreduce_for.  Filled with the
        # uniform stage's constants so direct readers of the context see
        # a representative value.
        ar = ar_by_r(max(D // S, 1))
        speed_scales = self._group_speed_scales(D)
        names = self.model.backbone_names
        if len(names) == 1:
            mode = self._partition_mode
            ctx = PartitionContext(
                profile=self.profile,
                component=names[0],
                batch_per_group=batch_per_group,
                num_micro_batches=M,
                p2p=p2p,
                allreduce=ar,
                self_conditioning=self.model.self_conditioning,
                self_conditioning_prob=self.model.self_conditioning_prob,
                allreduce_by_r=ar_by_r,
                allreduce_key=ar_key,
                pricing="zerobubble" if mode[0] == "zerobubble" else "default",
                speed_scales=speed_scales,
            )
            if self._family.chunked:
                # Interleaved virtual stages partition at CHUNK
                # granularity: the layer chain is cut into v*S
                # consecutive chunks and chunk c lands on device
                # c mod S, so each device hosts v non-contiguous
                # chunks.  Running the DP with v*S stages on a virtual
                # v*D budget keeps the homogeneous replica count at
                # r = D/S per chunk while p2p and all-reduce constants
                # stay priced from the real group (closures above).
                # The DP's ramp coefficient then over-counts (2vS-2 vs
                # the schedule's shorter per-chunk ramps), which only
                # biases *which* cut it prefers — final throughput
                # always comes from simulating the real chunk chain.
                v = self.options.virtual_stages
                plan = partition_backbone(
                    ctx, S * v, D * v, heterogeneous=False,
                    caches=self.caches,
                )
                return replace(plan, group_size=D)
            return partition_backbone(
                ctx,
                S,
                D,
                heterogeneous=self.options.heterogeneous_replication,
                caches=self.caches,
            )
        ctx_down = PartitionContext(
            profile=self.profile,
            component=names[0],
            batch_per_group=batch_per_group,
            num_micro_batches=M,
            p2p=p2p,
            allreduce=ar,
            allreduce_by_r=ar_by_r,
            allreduce_key=ar_key,
            speed_scales=speed_scales,
        )
        ctx_up = replace(ctx_down, component=names[1])
        return partition_cdm(
            CDMPartitionContext(down=ctx_down, up=ctx_up),
            S,
            D,
            cut_step=self.options.cdm_cut_step,
            heterogeneous=self.options.heterogeneous_replication,
            caches=self.caches,
        )

    def _stage_execs(
        self,
        chain: Sequence[StageAssignment],
        micro_batch: float,
        sc: bool,
        group_size: int | None = None,
        reverse_windows: bool = False,
    ) -> list[StageExec]:
        prof = self.profile
        # With heterogeneous replication the stages' replica counts
        # differ, so the pipeline-group size must come from the
        # partition (or the chain's device total) — multiplying the
        # first stage's count by the stage count only works for the
        # homogeneous case.
        if group_size is None:
            group_size = sum(st.replicas for st in chain)
        p2p = self._p2p_costs(group_size)
        scales = self._group_speed_scales(group_size)
        # Device windows along the chain: stage i occupies the devices
        # where stage i-1's replicas end, matching the partition DP's
        # placement convention.  The up chain of the bidirectional
        # schedule is traversed in its own stage order but placed in
        # reverse chain order (up stage j shares position S-1-j's
        # devices), so its windows are suffix sums.
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
            ar = self._allreduce_costs(group_size, st.replicas)
            sync = grad / ar.bandwidth + ar.latency if grad > 0 else 0.0
            # B/W split carried on every exec (only the split-backward
            # family reads it): W from the profile's measured/calibrated
            # grad-weight share, B the exact remainder.
            bwd_w = prof.stage_bwd_w_ms(st.component, st.lo, st.hi, local)
            bwd_b = prof.stage_bwd_b_ms(st.component, st.lo, st.hi, local)
            if scales is not None:
                # The stage runs at its window's bottleneck speed — the
                # same min-over-window the partition DP priced — so the
                # simulated timeline and the DP's T0 agree on slowdowns.
                # Comm terms (send/sync) are never compute-scaled.
                pd = (
                    offsets[-1] - offsets[i + 1]
                    if reverse_windows
                    else offsets[i]
                )
                w = min(scales[pd : pd + st.replicas])
                fwd /= w
                bwd /= w
                bwd_w /= w
                bwd_b /= w
            execs.append(
                StageExec(
                    index=i,
                    fwd_ms=fwd,
                    bwd_ms=bwd,
                    bwd_b_ms=bwd_b,
                    bwd_w_ms=bwd_w,
                    sc_fwd_ms=fwd if sc else None,
                    send_fwd_ms=send_fwd,
                    send_bwd_ms=send_bwd,
                    sync_ms=sync,
                    replicas=st.replicas,
                    layer_range=(st.component, st.lo, st.hi),
                )
            )
        return execs

    def _feedback_ms(
        self,
        chain: Sequence[StageAssignment],
        micro_batch: float,
        group_size: int | None = None,
    ) -> float:
        last = chain[-1]
        local = micro_batch / last.replicas
        nbytes = self.profile.boundary_bytes(last.component, last.hi - 1, local)
        if group_size is None:
            group_size = sum(st.replicas for st in chain)
        p2p = self._p2p_costs(group_size)
        return nbytes / p2p.bandwidth + p2p.latency

    def _nt_serial_ms(self, batch_per_group: float, D: int) -> float:
        """Serial (pre-pipeline) execution time of the whole NT part,
        data-parallel across the pipeline group."""
        total = 0.0
        for comp in self.model.non_trainable:
            total += self.profile.component_fwd_ms(comp.name, batch_per_group / D)
        return total

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
        fields only, so a hit costs no stage-exec derivation.  Both
        passes of :meth:`plan`, and planners that differ only in their
        filling options, share one timeline per configuration.
        """
        key = (
            "simulate",
            partition.down,
            partition.up,
            partition.num_micro_batches,
            partition.group_size,
            batch_per_group,
            sc,
            self.cluster,
            weakref.ref(self.profile),
            self.model.name,
            self.schedule,
        )
        evals = self.caches.evals
        timeline = evals.get(key)
        if timeline is None:
            timeline = self._simulate_uncached(partition, batch_per_group, sc=sc)
            evals.put(key, timeline)
        return timeline

    def _simulate_uncached(
        self, partition: PartitionPlan, batch_per_group: float, *, sc: bool
    ) -> Timeline:
        micro = partition.micro_batch
        M = partition.num_micro_batches
        S = partition.num_stages
        D = partition.group_size
        family = self._family
        if partition.is_bidirectional:
            # Chain position i hosts the down chain's stage i AND the up
            # chain's stage S-1-i on the same devices, so the simulator's
            # per-device weight must reflect both (they agree by
            # construction — the partitioner assigns one replica count
            # per position — but deriving from one chain only would go
            # silently wrong if that ever changed).
            weights = {
                i: max(
                    partition.down[i].replicas,
                    partition.up[S - 1 - i].replicas,
                )
                for i in range(S)
            }
            down = self._stage_execs(partition.down, micro, sc=False, group_size=D)
            up = self._stage_execs(
                partition.up, micro, sc=False, group_size=D,
                reverse_windows=True,
            )
            # The up-chain stage execs (and therefore their replica
            # counts) are part of the key, alongside the two-sided
            # device weights.
            tl_key = (
                self.schedule,
                tuple(down),
                tuple(up),
                M,
                S,
                tuple(sorted(weights.items())),
            )
            timeline = self.caches.timelines.get(tl_key)
            if timeline is None:
                tasks = family.build(down, M, up=up)
                timeline = simulate(tasks, S, weights)
                self.caches.timelines.put(tl_key, timeline)
        else:
            if family.chunked:
                # partition.down is the chunk chain: v chunks per
                # device-chain position, all replicating identically,
                # so the simulator sees S/v physical positions.
                positions = S // self.options.virtual_stages
            else:
                positions = S
            weights = {
                i: partition.down[i].replicas for i in range(positions)
            }
            stages = self._stage_execs(partition.down, micro, sc=sc, group_size=D)
            feedback = (
                self._feedback_ms(partition.down, micro, group_size=D)
                if sc
                else 0.0
            )
            tl_key = (
                self.schedule,
                tuple(stages),
                M,
                sc,
                feedback,
                S,
                tuple(sorted(weights.items())),
            )
            timeline = self.caches.timelines.get(tl_key)
            if timeline is None:
                tasks = family.build(
                    stages,
                    M,
                    num_devices=positions if family.chunked else None,
                    self_conditioning=sc,
                    feedback_ms=feedback,
                )
                timeline = simulate(tasks, positions, weights)
                self.caches.timelines.put(tl_key, timeline)
        return timeline
