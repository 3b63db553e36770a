"""Dynamic-programming backbone partitioning (paper §4.1 and §4.3).

The partitioner minimises the paper's estimate of FIFO-1F1B pipeline
execution time

    T_max = (M + 2S - 2) * T0 + T0^{S-C}            (Eqn. 1)

over all ways of cutting the backbone's ``L`` layers into ``S``
contiguous stages.  ``T_max`` is the DP's objective, not a bound: the
simulated makespan of a partition can exceed it, so the planner ranks
configurations on simulated timelines.  Here

* ``T0`` (per stage, Eqn. 3) is the larger of the stage's
  forward+backward compute per micro-batch and its inter-stage
  communication time;
* ``T0^{S-C}`` (Eqns. 4-6) is the largest gap between a stage's gradient
  all-reduce time and the compensation (overlap) time available to it —
  the backward work of all layers *before* the stage, which is exactly
  what still runs on the critical path when the stage's sync starts.
  The prefix-sum form is the lower bound the paper adopts because a
  sub-problem does not yet know how those earlier layers are split.

With self-conditioning (§4.3) the per-stage bound gains a second
forward pass (Eqn. 17) and the objective a feedback term ``T_F``
(Eqn. 18); the optimiser minimises the *expectation* over the
self-conditioning activation probability ``p``.

Because the objective is monotone in the pair ``(T0, T0^{S-C})`` — a
triple with self-conditioning — an exact solution only needs the Pareto
frontier of per-prefix values, which this module tracks explicitly
(frontier sizes stay small in practice).  One DP serves both
replication flavours: the general recursion (Eqns. 7-9), whose states
after ``s`` stages are ``(layers-consumed, devices-consumed)``.
Heterogeneous replication (behind a flag) lets each stage pick its own
replica count; the default pins every stage to ``r = D/S`` as in the
paper's evaluation (footnote 2), which leaves each state exactly one
transition per cut.

:func:`backbone_makespan_floor` bounds the simulated makespan of
whichever partition the DP would return without running it, which lets
the planner's bound ladder skip the DP for configurations that cannot
win.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.collectives import CommCosts
from ..errors import ConfigurationError, PartitionError
from ..profiling.records import ProfileDB
from ..schedule import FLOOR_MARGIN
from .caches import PlannerCaches, default_caches
from .plan import PartitionPlan, StageAssignment


@dataclass(frozen=True)
class PartitionContext:
    """Everything the stage cost functions need.

    ``allreduce`` is the sync model of Eqn. 4: one :class:`CommCosts`
    pair for every replica count, or a tuple whose entry ``r - 1``
    prices a stage of ``r`` replicas.  A stage's sync group spans its
    ``r`` replicas times the data-parallel degree, so callers that know
    the cluster layout pass the tuple and the DPs price Eqn. 4
    faithfully for every candidate ``r``.  Either form is hashable, so
    DP memo keys hold it as is.

    ``pricing`` selects the per-stage bound the DP optimises.  The
    ``"default"`` mode is Eqn. 1 as stated; ``"zerobubble"`` prices the
    split-backward schedule family, where only the grad-input half (B)
    of a backward sits on the warm-up/cool-down critical path while the
    grad-weight half (W) slides into bubbles — the ramp coefficient
    ``2S - 2`` then applies to ``max(fwd + B, comm)`` instead of the
    full ``T0`` (the steady-state ``M`` stages still pay full F+B+W:
    every device must execute W somewhere).  With self-conditioning the
    zero-bubble refinement is skipped and default pricing applies — the
    frontier's second coordinate carries ``T0^{SC}`` in that case, and
    the full-backward bound remains a valid (looser) upper bound.
    """

    profile: ProfileDB
    component: str
    batch_per_group: float
    num_micro_batches: int
    p2p: CommCosts
    allreduce: CommCosts | tuple[CommCosts, ...]
    self_conditioning: bool = False
    self_conditioning_prob: float = 0.5
    pricing: str = "default"
    #: Per-device relative compute speeds along the pipeline group's
    #: device chain (group-local ranks ``0..D-1``; the planner folds the
    #: data-parallel replicas of each position to their bottleneck).
    #: ``None`` is the homogeneous group: every window factor is 1.0.
    #: A stage on window ``[pd, pd+r)`` divides its compute (never its
    #: communication) by the window's minimum factor.  The tuple is
    #: deliberately *not* canonicalised, so homogeneous cache keys stay
    #: ``None``; an all-1.0 tuple must plan bit-identically to ``None``
    #: (x / 1.0 is IEEE-exact), which the property suite asserts.
    speed_scales: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.allreduce, tuple) and not self.allreduce:
            raise ConfigurationError(
                "an allreduce tuple must price at least one replica count"
            )
        if self.pricing not in ("default", "zerobubble"):
            raise ConfigurationError(
                f"unknown partition pricing {self.pricing!r}; "
                "expected 'default' or 'zerobubble'"
            )
        if self.speed_scales is not None:
            if not isinstance(self.speed_scales, tuple):
                raise ConfigurationError(
                    "speed_scales must be a tuple (or None for a "
                    "homogeneous group)"
                )
            for scale in self.speed_scales:
                if not scale > 0:
                    raise ConfigurationError(
                        f"speed scales must be positive, got {scale}"
                    )

    @property
    def zb_pricing(self) -> bool:
        """True when the DP prices the split-backward ramp (the
        refinement is mutually exclusive with the self-conditioning
        coordinate, which rides the same frontier slot)."""
        return self.pricing == "zerobubble" and not self.self_conditioning

    @property
    def micro_batch(self) -> float:
        return self.batch_per_group / self.num_micro_batches

    def allreduce_for(self, replicas: int) -> CommCosts:
        """The all-reduce constants of a stage with ``replicas`` devices."""
        if not isinstance(self.allreduce, tuple):
            return self.allreduce
        if replicas > len(self.allreduce):
            raise ConfigurationError(
                f"the allreduce tuple prices {len(self.allreduce)} replica "
                f"counts; a stage of {replicas} replicas is past it"
            )
        return self.allreduce[replicas - 1]

    @property
    def comp_scale(self) -> float:
        """Deflator of the compensation term under mixed speeds.

        Eqn. 5 credits a stage's sync with the backward work of all
        *earlier* layers, whose hosting devices (and speeds) a
        sub-problem does not know yet.  Crediting the nominal time
        divided by the group's *maximum* factor under-credits every
        possible placement — earlier layers can never run faster than
        on the group's fastest device — so the resulting ``Y`` is at
        least the gap any placement of those layers would leave.
        ``T_max`` stays the DP's objective, not a bound on the simulated
        pipeline time.
        """
        if self.speed_scales is None:
            return 1.0
        return max(self.speed_scales)

    def window_scale(self, pd: int, r: int) -> float:
        """Bottleneck speed factor of the device window ``[pd, pd+r)``.

        A stage replicated on that window runs its compute at the pace
        of its slowest device (the replicas execute the same layers on
        equal local batches and synchronise at the stage boundary).
        """
        if self.speed_scales is None:
            return 1.0
        return min(self.speed_scales[pd : pd + r])


class StageCosts:
    """Per-stage cost evaluator with prefix-sum acceleration.

    All quantities are per micro-batch at the stage's local batch size
    ``micro_batch / r``.  ``comm_scale`` multiplies the boundary
    communication of Eqns. 3 and 17; the bidirectional DP passes
    :data:`~repro.schedule.BIDIRECTIONAL_COMM_SCALE` for the 2x link
    competition of Eqn. 10.

    Every bound divides its compute term (never communication) by the
    hosting window's bottleneck speed factor ``scale``, and the sync gap
    divides its compensation by the group's ``comp_scale`` (see
    :attr:`PartitionContext.comp_scale`).  Both default to 1.0, the
    homogeneous group, and the division is unconditional — no identity
    gate — so the elementwise op sequence matches the array kernels
    exactly.

    The O(L) prefix sums come from
    :meth:`~repro.profiling.records.ProfileDB.stage_prefix_sums`,
    memoised on the profile by (component, local batch): the DPs build
    an evaluator per (context, replica count), far more of them than
    there are distinct local batches.
    """

    def __init__(
        self, ctx: PartitionContext, replicas: int, comm_scale: float = 1.0
    ):
        if replicas <= 0:
            raise ConfigurationError("replicas must be positive")
        self.ctx = ctx
        self.replicas = replicas
        self.comm_scale = comm_scale
        #: all-reduce constants resolved for this stage's replica count
        self.sync_costs = ctx.allreduce_for(replicas)
        prof = ctx.profile
        comp = ctx.component
        n = prof.num_layers(comp)
        self.num_layers = n
        b = ctx.micro_batch / replicas
        if b <= 0:
            raise ConfigurationError("local batch must be positive")
        self.local_batch = b
        # Prefix sums over layers: fwd/bwd times, the grad-weight (W)
        # share of each backward, gradient bytes.  Shared read-only with
        # every evaluator at this local batch (the profile's memo).
        self._fwd, self._bwd, self._bww, self._grad = prof.stage_prefix_sums(
            comp, b
        )

    # -- pieces ----------------------------------------------------------------

    def fwd(self, lo: int, hi: int) -> float:
        return self._fwd[hi] - self._fwd[lo]

    def bwd(self, lo: int, hi: int) -> float:
        return self._bwd[hi] - self._bwd[lo]

    def bwd_w(self, lo: int, hi: int) -> float:
        """Grad-weight (W) share of the stage's backward."""
        return self._bww[hi] - self._bww[lo]

    def bwd_b(self, lo: int, hi: int) -> float:
        """Grad-input (B) share: the part on the gradient chain."""
        return max(0.0, self.bwd(lo, hi) - self.bwd_w(lo, hi))

    def grad_bytes(self, lo: int, hi: int) -> float:
        return self._grad[hi] - self._grad[lo]

    def boundary_comm_ms(self, lo: int, forwards: int = 1) -> float:
        """Communication term of Eqn. 3 (or Eqn. 17 for ``forwards=2``).

        ``lo`` is the stage's first layer; the stage receives the output
        of layer ``lo - 1`` and returns its gradient, so both directions
        move ``C_{lo-1,lo}`` bytes.  Stage 0 receives loader input,
        modelled as free.
        """
        if lo == 0:
            return 0.0
        nbytes = self.ctx.profile.boundary_bytes(
            self.ctx.component, lo - 1, self.local_batch
        )
        total = (forwards + 1) * nbytes / self.ctx.p2p.bandwidth
        return (
            total + (forwards + 1 + 1) * self.ctx.p2p.latency
        ) * self.comm_scale

    # -- per-stage bounds ---------------------------------------------------------

    def t0(self, lo: int, hi: int, scale: float = 1.0) -> float:
        """Eqn. 3: max(compute, communication) for stage ``[lo, hi)``."""
        return max(
            (self.fwd(lo, hi) + self.bwd(lo, hi)) / scale,
            self.boundary_comm_ms(lo),
        )

    def t0_sc(self, lo: int, hi: int, scale: float = 1.0) -> float:
        """Eqn. 17: the self-conditioning variant (two forward passes)."""
        return max(
            (2.0 * self.fwd(lo, hi) + self.bwd(lo, hi)) / scale,
            self.boundary_comm_ms(lo, forwards=2),
        )

    def t0_ramp(self, lo: int, hi: int, scale: float = 1.0) -> float:
        """Zero-bubble ramp bound: the warm-up/cool-down slots of the
        split-backward schedule pay only forward + grad-input (B) time —
        the grad-weight (W) work slides off the ramp into bubbles.  The
        compensation term (Eqn. 5) is left unchanged: earlier layers'
        B *and* W both still execute while a stage's sync runs, so
        ``bwd(0, lo)`` remains a valid overlap lower bound."""
        return max(
            (self.fwd(lo, hi) + self.bwd_b(lo, hi)) / scale,
            self.boundary_comm_ms(lo),
        )

    def sync_ms(self, lo: int, hi: int) -> float:
        """Eqn. 4: gradient all-reduce time of stage ``[lo, hi)``."""
        g = self.grad_bytes(lo, hi)
        if g == 0:
            return 0.0
        return g / self.sync_costs.bandwidth + self.sync_costs.latency

    def compensation_ms(self, lo: int) -> float:
        """Eqn. 5 (lower bound): backward time of all layers before the
        stage, i.e. the work still running when the stage's sync starts."""
        return self.bwd(0, lo)

    def sync_gap(self, lo: int, hi: int, comp_scale: float = 1.0) -> float:
        """Eqn. 6: ``T_S(s) - T_C(s)``, the compensation deflated by the
        group's maximum speed factor ``comp_scale``."""
        return self.sync_ms(lo, hi) - self.compensation_ms(lo) / comp_scale

    def send_ms(self, hi: int) -> float:
        """One transfer of the output of a stage ending at layer ``hi``,
        priced as the schedule builders price a stage's sends."""
        nbytes = self.ctx.profile.boundary_bytes(
            self.ctx.component, hi - 1, self.local_batch
        )
        return nbytes / self.ctx.p2p.bandwidth + self.ctx.p2p.latency

    def feedback_ms(self) -> float:
        """``T_F`` of §4.3: last-stage output fed back to stage 0."""
        return self.send_ms(self.num_layers)


def partition_backbone(
    ctx: PartitionContext,
    num_stages: int,
    group_size: int,
    *,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
    chunks: int = 1,
) -> PartitionPlan:
    """Optimally cut one backbone into ``num_stages`` stages (§4.1/§4.3).

    With ``heterogeneous=False`` every stage replicates on
    ``group_size / num_stages`` devices (the paper's evaluation setting,
    footnote 2): the DP of Eqns. 7-9 with every replica count pinned.
    With ``heterogeneous=True`` the per-stage replica count is free.
    ``caches`` holds the memoised DP tables (the process-wide default
    when None).  ``chunks`` is the number of the stages each device
    hosts (a chunked schedule's chunks), which only :func:`_objective`
    reads.
    """
    caches = caches if caches is not None else default_caches()
    S, D = num_stages, group_size
    L, fixed_r = _backbone_lattice(ctx, S, D, heterogeneous)
    history, tf_by_r = _het_frontiers(ctx, L, S, D, caches, fixed_r=fixed_r)
    return _select_plan(
        ctx, S, D, L, history, tf_by_r, replicas=fixed_r, chunks=chunks
    )


def backbone_makespan_floor(
    ctx: PartitionContext,
    num_stages: int,
    group_size: int,
    *,
    heterogeneous: bool = False,
    split_backward: bool = False,
    comm_scale: float = 1.0,
    caches: PlannerCaches | None = None,
) -> float:
    """Lower bound on the simulated makespan of every partition
    :func:`partition_backbone` can return for the same arguments,
    without running its DP: the single-backbone twin of
    :func:`~.partition_cdm.cdm_makespan_floor`.

    With ``M`` micro-batches, a device runs ``M`` forward and backward
    passes of its stage between the pipeline's fill and drain ramps,
    and one micro-batch's path down the chain and back ends in stage
    0's sync, so each build's simulated makespan is at least ``max(V*,
    CP*)``, each term minimised over the DP's whole lattice (see
    :func:`~.partition_kernels.het_floor_array`): it holds whichever
    partition the DP picks.  ``split_backward`` and
    ``comm_scale`` are the schedule family's flags
    (:func:`~repro.schedule.onef1b.makespan_floor`).  Under
    self-conditioning the plain and self-conditioned floors mix as the
    planner mixes the two makespans.  The terms sum in a different
    order from the simulator, so the result gives up a relative
    :data:`~repro.schedule.FLOOR_MARGIN`.  Raises
    :class:`PartitionError` exactly where :func:`partition_backbone`
    does.  The lattice's plan comes from, and is kept in,
    ``caches.kernel_plans``.
    """
    caches = caches if caches is not None else default_caches()
    S, D = num_stages, group_size
    L, fixed_r = _backbone_lattice(ctx, S, D, heterogeneous)
    from . import partition_kernels

    terms = partition_kernels.het_floor_array(
        ctx, L, S, D,
        r_cap=fixed_r if fixed_r is not None else int(ctx.micro_batch),
        fixed_r=fixed_r, split_backward=split_backward,
        comm_scale=comm_scale, plans=caches.kernel_plans,
    )
    floors = [max(v, cp) for v, cp in terms]
    floor = floors[0]
    if ctx.self_conditioning:
        floor = _expected(ctx.self_conditioning_prob, floor, floors[1])
    return floor * (1.0 - FLOOR_MARGIN)


def backbone_table_served(
    ctx: PartitionContext,
    num_stages: int,
    group_size: int,
    *,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
) -> bool:
    """Whether :func:`partition_backbone` with the same arguments builds
    no DP table: it raises :class:`PartitionError` up front, or its
    table is already in ``caches.het``.  The lookup counts neither a
    hit nor a miss."""
    caches = caches if caches is not None else default_caches()
    try:
        L, fixed_r = _backbone_lattice(ctx, num_stages, group_size, heterogeneous)
    except PartitionError:
        return True
    key = _het_key(ctx, L, num_stages, group_size, fixed_r)
    return caches.het.contains(ctx.profile, key)


def _backbone_lattice(
    ctx: PartitionContext, S: int, D: int, heterogeneous: bool
) -> tuple[int, int | None]:
    """Check a single-backbone partition request; returns the layer
    count and the pinned replica count (``None``: heterogeneous).
    Raises :class:`PartitionError` where no partition can exist and
    :class:`ConfigurationError` on malformed arguments."""
    L = ctx.profile.num_layers(ctx.component)
    if S <= 0 or D <= 0:
        raise ConfigurationError("num_stages and group_size must be positive")
    if S > L:
        raise PartitionError(
            f"cannot cut {L} layers into {S} non-empty stages"
        )
    if S > D:
        raise PartitionError(f"cannot place {S} stages on {D} devices")
    if ctx.speed_scales is not None and len(ctx.speed_scales) != D:
        raise ConfigurationError(
            f"speed_scales must carry one factor per group device "
            f"(got {len(ctx.speed_scales)} for group size {D})"
        )
    if heterogeneous:
        return L, None

    if D % S != 0:
        raise PartitionError(
            f"homogeneous replication needs S | D (got S={S}, D={D}); "
            "use heterogeneous=True otherwise"
        )
    r = D // S
    if ctx.micro_batch < r:
        # Same per-replica sample floor the heterogeneous DP enforces
        # (r_cap): a stage replica must see at least one sample per
        # micro-batch.  Keeping both paths consistent preserves the
        # invariant that the heterogeneous DP (which can always pick
        # uniform r = D/S) never does worse than this path.
        raise PartitionError(
            f"uniform replication r={r} needs at least {r} samples per "
            f"micro-batch (got {ctx.micro_batch:g})"
        )
    return L, r


def _expected(p: float, plain: float, sc: float) -> float:
    """Self-conditioning expectation: a step takes the extra forward
    pass with probability ``p``."""
    return (1 - p) * plain + p * sc


def _expected_w(ctx: PartitionContext, w: float, w_sc: float) -> float:
    if not ctx.self_conditioning:
        return w
    return _expected(ctx.self_conditioning_prob, w, w_sc)


def _objective(
    ctx: PartitionContext, S: int, w: float, w_sc: float, y: float, tf: float,
    chunks: int = 1,
) -> float:
    """Expected T_max over the self-conditioning coin flip (§4.3).

    Under zero-bubble pricing the frontier's second coordinate carries
    the ramp bound (``t0_ramp``) instead of ``T0^{SC}``: the steady
    phase pays ``M`` full stage times, the ``2S - 2`` ramp slots only
    forward + grad-input.  When each device hosts ``chunks`` of the
    ``S`` stages, its steady phase runs ``chunks · M`` of them.
    """
    M = ctx.num_micro_batches * chunks
    if ctx.zb_pricing:
        return M * w + (2 * S - 2) * w_sc + y
    coeff = M + 2 * S - 2
    vanilla = coeff * w + y
    if not ctx.self_conditioning:
        return vanilla
    p = ctx.self_conditioning_prob
    sc = coeff * w_sc + y + tf
    return p * sc + (1.0 - p) * vanilla


class _LazyStageCosts:
    """On-demand :class:`StageCosts` per replica count.

    The heterogeneous DPs only ever touch replica counts that some
    feasible assignment can use (``r <= D - S + 1``); building the
    O(L) prefix sums for the rest — as the eager ``costs_by_r`` dict
    used to — is pure waste.  ``comm_scale`` is passed to every
    :class:`StageCosts` (the bidirectional DP's link enlargement).
    """

    def __init__(self, ctx: PartitionContext, comm_scale: float = 1.0):
        self._ctx = ctx
        self._comm_scale = comm_scale
        self._by_r: dict[int, StageCosts] = {}

    def __call__(self, r: int) -> StageCosts:
        costs = self._by_r.get(r)
        if costs is None:
            costs = self._by_r[r] = StageCosts(self._ctx, r, self._comm_scale)
        return costs


def _het_frontiers(
    ctx: PartitionContext,
    L: int,
    S: int,
    D: int,
    caches: PlannerCaches,
    *,
    fixed_r: int | None = None,
) -> tuple[list[dict[tuple, tuple[tuple, ...]]], dict[int, float]]:
    """The (memoized) Pareto-DP table of :func:`partition_backbone`.

    Returns ``(history, tf_by_r)``.  ``history[s][(l, d)]`` is the
    frontier of ``(w, w_sc, y, cut, replicas, parent_index)`` for
    prefixes of ``l`` layers on ``d`` devices in ``s`` stages — except
    the last stage, whose buckets are keyed ``(l, d, r)`` so that the
    r-dependent feedback term cannot be pruned away by (w, w_sc, y)
    dominance.  Frontiers are frozen to tuples before caching, so the
    read-only contract is engine-enforced.  ``tf_by_r`` maps every
    last-stage replica count to its feedback time ``T_F`` (empty
    without self-conditioning); it is computed with the table — while
    the per-``r`` ``StageCosts`` are warm — and cached alongside it, so
    neither cold nor hit paths rebuild O(L) prefix sums for the final
    selection.

    ``fixed_r=None`` builds the free table of heterogeneous replication
    (Eqns. 7-9); a ``fixed_r`` pins every stage to that many replicas
    on ``D = S * fixed_r`` devices (uniform replication, footnote 2).

    Tables live in ``caches.het``, keyed weakly by the profile, so
    sweeps sharing one DB (planner + SPP + ablation variants via one
    :class:`PlannerCaches`) share the expensive DP work, and the tables
    die with the profile.  No key holds the micro-batch *count* M or
    the self-conditioning probability, which enter only the final
    objective selection.  A free table depends on (component, L, S, D,
    the per-group micro-batch size, the communication constants, the
    pricing flavour).  A pinned table depends on the stage-local batch
    ``micro_batch / r`` instead of (D, micro-batch), so (M, r)
    combinations sharing one stage-local batch share one table; its
    ``d`` and ``r`` labels then name the builder's replica count, which
    :func:`_select_plan` relabels with its caller's.
    """
    key = _het_key(ctx, L, S, D, fixed_r)
    cached = caches.het.get(ctx.profile, key)
    if cached is not None:
        return cached

    from . import partition_kernels

    # Looked up on the module at call time: the differential suites
    # swap in the pure-Python oracle here (tests/oracles/).
    history, tf_by_r = partition_kernels.het_table_array(
        ctx, L, S, D, fixed_r=fixed_r, plans=caches.kernel_plans
    )
    history = [
        {state: tuple(entries) for state, entries in stage.items()}
        for stage in history
    ]
    cached = (history, tf_by_r)
    caches.het.put(ctx.profile, key, cached)
    return cached


def _het_key(
    ctx: PartitionContext, L: int, S: int, D: int, fixed_r: int | None
) -> tuple:
    """The ``caches.het`` key of a 1F1B DP table (see
    :func:`_het_frontiers`)."""
    if fixed_r is None:
        return (
            ctx.component,
            L,
            S,
            D,
            ctx.micro_batch,
            ctx.p2p,
            # One free table spans every replica count, so the key
            # carries the whole sync model.
            ctx.allreduce,
            ctx.self_conditioning,
            # Zero-bubble pricing repurposes the second frontier
            # coordinate for the ramp bound, so its tables must not
            # alias the default ones (all non-splitting families share
            # "default" tables).
            ctx.zb_pricing,
            # Per-device speed factors (the table's windows are internal
            # to the DP state, so the tuple alone suffices; D is above).
            ctx.speed_scales,
        )
    r = fixed_r
    return (
        # Flavour tag: a pinned key never equals a free one.
        "pinned",
        ctx.component,
        L,
        S,
        # The stage-local batch, exactly as StageCosts computes it.
        ctx.micro_batch / r,
        ctx.p2p,
        # The sync constants actually resolved for this replica
        # count: with a per-replica-count tuple, contexts sharing
        # one stage-local batch but differing in (micro-batch, r)
        # price Eqn. 4 differently and must not share a table.
        ctx.allreduce_for(r),
        ctx.self_conditioning,
        ctx.zb_pricing,
        # Heterogeneous device speeds: stage s covers the group-local
        # window [(s-1)r, sr), so a scaled table depends on the full
        # factor tuple AND on r — two contexts sharing one
        # stage-local batch but differing in r slice different
        # windows.  None keeps homogeneous keys stable across
        # speed-agnostic callers.
        None if ctx.speed_scales is None else (r, ctx.speed_scales),
    )


def _select_plan(
    ctx: PartitionContext,
    S: int,
    D: int,
    L: int,
    history: list[dict[tuple, tuple[tuple, ...]]],
    tf_by_r: dict[int, float],
    *,
    replicas: int | None,
    chunks: int = 1,
) -> PartitionPlan:
    """Final objective selection + backtrack over a 1F1B DP table.

    Accepts any full assignment that uses all ``L`` layers; devices may
    be partially used, but using all of them never hurts, so ties on
    the objective prefer the largest ``d``, then the smaller ``(w, y)``.
    ``replicas`` overrides every stage's count for pinned tables — they
    may be shared across (micro-batch, r) combos with one stage-local
    batch, so the entries' own ``r`` labels the *builder's* call, not
    necessarily this one.  ``None`` keeps each entry's count (free
    tables).  ``chunks`` goes to :func:`_objective`.
    """
    finals = [
        (key, e)
        for key, entries in history[S].items()
        if key[0] == L
        for e in entries
    ]
    if not finals:
        flavour = "heterogeneous " if replicas is None else ""
        raise PartitionError(
            f"no feasible {flavour}partition of {L} layers into {S} "
            f"stages on {D} devices"
        )

    def objective(e: tuple) -> float:
        # tf_by_r holds every last-stage r (see _het_frontiers).
        tf = tf_by_r[e[4]] if ctx.self_conditioning else 0.0
        return _objective(ctx, S, e[0], e[1], e[2], tf, chunks)

    best_key, best = min(
        finals,
        key=lambda ke: (objective(ke[1]), -ke[0][1], ke[1][0], ke[1][2]),
    )

    # Backtrack.
    assignments: list[StageAssignment] = []
    l, d, entry = best_key[0], best_key[1], best
    for s in range(S, 0, -1):
        c, r = entry[3], entry[4]
        stage_r = replicas if replicas is not None else r
        assignments.append(StageAssignment(ctx.component, c, l, replicas=stage_r))
        entry = history[s - 1][(c, d - r)][entry[5]]
        l, d = c, d - r
    assignments.reverse()
    for i, a in enumerate(assignments):
        # StageAssignment is positional in the chain; re-check contiguity.
        if i > 0 and a.lo != assignments[i - 1].hi:
            raise PartitionError("backtracking produced a non-contiguous chain")

    return PartitionPlan(
        down=tuple(assignments),
        num_stages=S,
        num_micro_batches=ctx.num_micro_batches,
        group_size=D,
        batch_per_group=ctx.batch_per_group,
        t_max_ms=objective(best),
        w_ms=_expected_w(ctx, best[0], best[1]),
        y_ms=best[2],
        self_conditioning=ctx.self_conditioning,
    )
