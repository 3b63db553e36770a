"""Dynamic-programming backbone partitioning (paper §4.1 and §4.3).

The partitioner minimises the upper bound on FIFO-1F1B pipeline
execution time

    T_max = (M + 2S - 2) * T0 + T0^{S-C}            (Eqn. 1)

over all ways of cutting the backbone's ``L`` layers into ``S``
contiguous stages, where

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
(states are ``(layers-consumed, stages-used)``; frontier sizes stay
small in practice).  Setting ``r != D/S`` per stage (heterogeneous
replication) is supported behind a flag with devices added to the
state, matching the general recursion (Eqns. 7-9); the default forces
homogeneous replication as in the paper's evaluation (footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cluster.collectives import CommCosts
from ..errors import ConfigurationError, PartitionError
from ..profiling.records import ProfileDB
from .caches import PlannerCaches, default_caches
from .plan import PartitionPlan, StageAssignment


@dataclass(frozen=True)
class PartitionContext:
    """Everything the stage cost functions need.

    ``allreduce`` prices every stage's gradient all-reduce with one
    flat :class:`CommCosts` pair.  A stage's sync group actually spans
    its ``r`` replicas times the data-parallel degree, so callers that
    know the cluster layout can instead supply ``allreduce_by_r`` — a
    per-replica-count cost resolver — and the DPs price Eqn. 4
    faithfully for every candidate ``r``.  ``allreduce_key`` must then
    identify the resolver's constants (a hashable value such as
    ``(cluster, D)``): DP memo keys use it in place of the callable,
    which is neither hashable nor comparable across planner instances.

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
    allreduce: CommCosts
    self_conditioning: bool = False
    self_conditioning_prob: float = 0.5
    allreduce_by_r: Callable[[int], CommCosts] | None = field(
        default=None, compare=False
    )
    allreduce_key: tuple | None = None
    pricing: str = "default"
    #: Per-device relative compute speeds along the pipeline group's
    #: device chain (group-local ranks ``0..D-1``; the planner folds the
    #: data-parallel replicas of each position to their bottleneck).
    #: ``None`` — the homogeneous default — keeps every DP on the
    #: unscaled code path byte-for-byte.  A tuple routes the DPs through
    #: the scaled stage bounds: a stage on window ``[pd, pd+r)`` divides
    #: its compute (never its communication) by the window's minimum
    #: factor.  The tuple is deliberately *not* canonicalised: an
    #: all-1.0 tuple exercises the scaled path and must reduce
    #: bit-identically to ``None`` (x / 1.0 is IEEE-exact), which the
    #: property suite asserts.
    speed_scales: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.allreduce_by_r is not None and self.allreduce_key is None:
            raise ConfigurationError(
                "allreduce_by_r needs an allreduce_key identifying its "
                "constants for the DP memo keys"
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
        if self.allreduce_by_r is not None:
            return self.allreduce_by_r(replicas)
        return self.allreduce

    @property
    def sync_key(self) -> tuple | CommCosts:
        """Hashable identity of the sync-cost model, for DP memo keys
        whose tables span several replica counts."""
        if self.allreduce_by_r is not None:
            return self.allreduce_key
        return self.allreduce

    @property
    def comp_scale(self) -> float:
        """Deflator of the compensation term under mixed speeds.

        Eqn. 5 credits a stage's sync with the backward work of all
        *earlier* layers, whose hosting devices (and speeds) a
        sub-problem does not know yet.  Crediting the nominal time
        divided by the group's *maximum* factor under-credits every
        possible placement — earlier layers can never run faster than
        on the group's fastest device — so the resulting ``Y`` keeps
        ``T_max`` a valid upper bound.
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
    ``micro_batch / r``.
    """

    def __init__(self, ctx: PartitionContext, replicas: int):
        if replicas <= 0:
            raise ConfigurationError("replicas must be positive")
        self.ctx = ctx
        self.replicas = replicas
        #: all-reduce constants resolved for this stage's replica count
        #: (falls back to the context's flat ``allreduce`` pair).
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
        # share of each backward, gradient bytes.
        self._fwd = [0.0] * (n + 1)
        self._bwd = [0.0] * (n + 1)
        self._bww = [0.0] * (n + 1)
        self._grad = [0.0] * (n + 1)
        for i in range(n):
            self._fwd[i + 1] = self._fwd[i] + prof.fwd_ms(comp, i, b)
            self._bwd[i + 1] = self._bwd[i] + prof.bwd_ms(comp, i, b)
            self._bww[i + 1] = self._bww[i] + prof.bwd_w_ms(comp, i, b)
            self._grad[i + 1] = self._grad[i] + prof.layer(comp, i).grad_bytes

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
        return total + (forwards + 1 + 1) * self.ctx.p2p.latency

    # -- per-stage bounds ---------------------------------------------------------

    def t0(self, lo: int, hi: int) -> float:
        """Eqn. 3: max(compute, communication) for stage ``[lo, hi)``."""
        return max(self.fwd(lo, hi) + self.bwd(lo, hi), self.boundary_comm_ms(lo))

    def t0_sc(self, lo: int, hi: int) -> float:
        """Eqn. 17: the self-conditioning variant (two forward passes)."""
        return max(
            2.0 * self.fwd(lo, hi) + self.bwd(lo, hi),
            self.boundary_comm_ms(lo, forwards=2),
        )

    def t0_ramp(self, lo: int, hi: int) -> float:
        """Zero-bubble ramp bound: the warm-up/cool-down slots of the
        split-backward schedule pay only forward + grad-input (B) time —
        the grad-weight (W) work slides off the ramp into bubbles.  The
        compensation term (Eqn. 5) is left unchanged: earlier layers'
        B *and* W both still execute while a stage's sync runs, so
        ``bwd(0, lo)`` remains a valid overlap lower bound."""
        return max(
            self.fwd(lo, hi) + self.bwd_b(lo, hi), self.boundary_comm_ms(lo)
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

    def sync_gap(self, lo: int, hi: int) -> float:
        """Eqn. 6: ``T_S(s) - T_C(s)``."""
        return self.sync_ms(lo, hi) - self.compensation_ms(lo)

    def feedback_ms(self) -> float:
        """``T_F`` of §4.3: last-stage output fed back to stage 0."""
        nbytes = self.ctx.profile.boundary_bytes(
            self.ctx.component, self.num_layers - 1, self.local_batch
        )
        return nbytes / self.ctx.p2p.bandwidth + self.ctx.p2p.latency

    # -- speed-scaled bounds ------------------------------------------------------
    #
    # Used only when ``ctx.speed_scales`` is set; each divides the
    # compute term (never communication) by the hosting window's
    # bottleneck factor, unconditionally — no identity gate — so the
    # elementwise op sequence matches the array kernels exactly and a
    # scale of 1.0 stays bit-identical to the unscaled bound.

    def t0_scaled(self, lo: int, hi: int, scale: float) -> float:
        """Eqn. 3 on a device window with bottleneck factor ``scale``."""
        return max(
            (self.fwd(lo, hi) + self.bwd(lo, hi)) / scale,
            self.boundary_comm_ms(lo),
        )

    def t0_sc_scaled(self, lo: int, hi: int, scale: float) -> float:
        """Eqn. 17 (two forwards) under a window speed factor."""
        return max(
            (2.0 * self.fwd(lo, hi) + self.bwd(lo, hi)) / scale,
            self.boundary_comm_ms(lo, forwards=2),
        )

    def t0_ramp_scaled(self, lo: int, hi: int, scale: float) -> float:
        """Zero-bubble ramp bound under a window speed factor."""
        return max(
            (self.fwd(lo, hi) + self.bwd_b(lo, hi)) / scale,
            self.boundary_comm_ms(lo),
        )

    def sync_gap_scaled(self, lo: int, hi: int, comp_scale: float) -> float:
        """Eqn. 6 with the compensation deflated by the group's maximum
        speed factor (see :attr:`PartitionContext.comp_scale`)."""
        return self.sync_ms(lo, hi) - self.compensation_ms(lo) / comp_scale


# -- Pareto machinery -------------------------------------------------------------


def pareto_insert(
    frontier: list[tuple], candidate: tuple, value_dims: int
) -> bool:
    """Insert ``candidate`` whose first ``value_dims`` entries are the
    objective coordinates; drop it (return False) if dominated, and prune
    points it dominates."""
    if value_dims == 3:
        # Hot path of the partition DP: unrolled comparisons (same
        # dominance tests, no generator/zip overhead).
        c0, c1, c2 = candidate[0], candidate[1], candidate[2]
        keep: list[tuple] = []
        for existing in frontier:
            e0, e1, e2 = existing[0], existing[1], existing[2]
            if e0 <= c0 and e1 <= c1 and e2 <= c2:
                # existing dominates (or equals) the candidate
                return False
            if not (c0 <= e0 and c1 <= e1 and c2 <= e2):
                keep.append(existing)
            # else: candidate dominates `existing` -> drop it
        keep.append(candidate)
        frontier[:] = keep
        return True
    if value_dims == 2:
        # Hot path of the bidirectional CDM DP.
        c0, c1 = candidate[0], candidate[1]
        keep = []
        for existing in frontier:
            e0, e1 = existing[0], existing[1]
            if e0 <= c0 and e1 <= c1:
                return False
            if not (c0 <= e0 and c1 <= e1):
                keep.append(existing)
        keep.append(candidate)
        frontier[:] = keep
        return True
    cvals = candidate[:value_dims]
    keep = []
    for existing in frontier:
        evals = existing[:value_dims]
        if all(e <= c for e, c in zip(evals, cvals)):
            # existing dominates (or equals) the candidate
            return False
        if not all(c <= e for c, e in zip(cvals, evals)):
            keep.append(existing)
        # else: candidate dominates `existing` -> drop it
    keep.append(candidate)
    frontier[:] = keep
    return True


def partition_backbone(
    ctx: PartitionContext,
    num_stages: int,
    group_size: int,
    *,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
) -> PartitionPlan:
    """Optimally cut one backbone into ``num_stages`` stages (§4.1/§4.3).

    With ``heterogeneous=False`` every stage replicates on
    ``group_size / num_stages`` devices (the paper's evaluation setting,
    footnote 2) and the DP state is (layers, stages).  With
    ``heterogeneous=True`` the per-stage replica count is free and the
    remaining-device count joins the state (Eqns. 7-9).  ``caches``
    holds the memoised DP tables (the process-wide default when None).
    """
    caches = caches if caches is not None else default_caches()
    S = num_stages
    D = group_size
    M = ctx.num_micro_batches
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
        return _partition_heterogeneous(ctx, S, D, caches)

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
    plan_stages, w, w_sc, y, obj = _solve_chain(ctx, r, L, S, caches)
    stages = tuple(
        StageAssignment(ctx.component, lo, hi, replicas=r) for lo, hi in plan_stages
    )
    return PartitionPlan(
        down=stages,
        num_stages=S,
        num_micro_batches=M,
        group_size=D,
        batch_per_group=ctx.batch_per_group,
        t_max_ms=obj,
        w_ms=_expected_w(ctx, w, w_sc),
        y_ms=y,
        self_conditioning=ctx.self_conditioning,
    )


def _expected_w(ctx: PartitionContext, w: float, w_sc: float) -> float:
    if not ctx.self_conditioning:
        return w
    p = ctx.self_conditioning_prob
    return p * w_sc + (1.0 - p) * w


def _objective(
    ctx: PartitionContext, S: int, w: float, w_sc: float, y: float, tf: float
) -> float:
    """Expected T_max over the self-conditioning coin flip (§4.3).

    Under zero-bubble pricing the frontier's second coordinate carries
    the ramp bound (``t0_ramp``) instead of ``T0^{SC}``: the steady
    phase pays ``M`` full stage times, the ``2S - 2`` ramp slots only
    forward + grad-input.
    """
    M = ctx.num_micro_batches
    if ctx.zb_pricing:
        return M * w + (2 * S - 2) * w_sc + y
    coeff = M + 2 * S - 2
    vanilla = coeff * w + y
    if not ctx.self_conditioning:
        return vanilla
    p = ctx.self_conditioning_prob
    sc = coeff * w_sc + y + tf
    return p * sc + (1.0 - p) * vanilla


def _chain_frontiers(
    ctx: PartitionContext,
    r: int,
    L: int,
    S: int,
    caches: PlannerCaches,
) -> tuple[list[tuple[tuple, ...]], float]:
    """The (memoized) Pareto-DP table of :func:`_solve_chain`.

    Returns ``(history, tf)``.  ``history[s][l]`` is the frontier of
    (w, w_sc, y, cut, parent_index) for prefixes of ``l`` layers in
    ``s`` stages; the first three values are objective coordinates,
    cut/parent enable backtracking.  Frontier cells are frozen to
    tuples before caching, so the read-only contract is enforced by
    the engine: a caller mutating a local copy of a frontier must copy
    it first and cannot corrupt the cached table.  ``tf`` is the
    feedback time ``T_F`` (0.0 without self-conditioning), computed
    with the table while the :class:`StageCosts` are warm.  The key is
    derived arithmetically — the O(L) prefix sums are built only on a
    cache miss.

    Tables live in ``caches.chains``, keyed weakly by the profile so
    sweeps sharing one DB (planner + SPP + ablation variants) share
    the expensive DP work and tables die with the profile.  The
    frontiers depend only on (component, S, the stage-local batch
    size, the communication constants, the self-conditioning flag) —
    notably *not* on the micro-batch count M or the self-conditioning
    probability, which enter only the final objective selection.
    """
    key = (
        ctx.component,
        L,
        S,
        # The stage-local batch, exactly as StageCosts computes it.
        ctx.micro_batch / r,
        ctx.p2p,
        # The sync constants actually resolved for this replica count:
        # with a per-replica-count resolver, contexts sharing one
        # stage-local batch but differing in (micro-batch, r) price
        # Eqn. 4 differently and must not share a table.
        ctx.allreduce_for(r),
        ctx.self_conditioning,
        # Zero-bubble pricing repurposes the second frontier coordinate
        # for the ramp bound, so its tables must not alias the default
        # ones (all non-splitting families share "default" tables).
        ctx.zb_pricing,
        # Heterogeneous device speeds: stage s covers the group-local
        # window [(s-1)r, sr), so a scaled table depends on the full
        # factor tuple AND on r — two contexts sharing one stage-local
        # batch but differing in r slice different windows.  None keeps
        # homogeneous keys stable across speed-agnostic callers.
        None if ctx.speed_scales is None else (r, ctx.speed_scales),
    )
    cached = caches.chains.get(ctx.profile, key)
    if cached is not None:
        return cached

    from . import partition_kernels

    # Looked up on the module at call time: the differential suites
    # swap in the pure-Python oracle here (tests/oracles/).
    history, tf = partition_kernels.chain_table_array(ctx, r, L, S)
    history = [tuple(tuple(cell) for cell in row) for row in history]
    cached = (history, tf)
    caches.chains.put(ctx.profile, key, cached)
    return cached


def _solve_chain(
    ctx: PartitionContext,
    r: int,
    L: int,
    S: int,
    caches: PlannerCaches,
) -> tuple[list[tuple[int, int]], float, float, float, float]:
    """Pareto DP over prefixes for a fixed replica count.

    Returns (stage slices, W, W_sc, Y, objective).
    """
    history, tf = _chain_frontiers(ctx, r, L, S, caches)
    final = history[S][L]
    if not final:
        raise PartitionError(
            f"no feasible partition of {L} layers into {S} stages"
        )
    best = min(
        final,
        key=lambda e: (_objective(ctx, S, e[0], e[1], e[2], tf), e[0], e[2]),
    )
    obj = _objective(ctx, S, best[0], best[1], best[2], tf)

    # Backtrack the cut positions.
    cuts: list[int] = []
    entry = best
    for s in range(S, 0, -1):
        c = entry[3]
        cuts.append(c)
        entry = history[s - 1][c][entry[4]]
    cuts.reverse()
    slices = [(cuts[i], cuts[i + 1] if i + 1 < S else L) for i in range(S)]
    return slices, best[0], best[1], best[2], obj


class _LazyStageCosts:
    """On-demand :class:`StageCosts` per replica count.

    The heterogeneous DPs only ever touch replica counts that some
    feasible assignment can use (``r <= D - S + 1``); building the
    O(L) prefix sums for the rest — as the eager ``costs_by_r`` dict
    used to — is pure waste.  ``build`` lets variants substitute their
    own evaluator (the bidirectional DP's comm-scaled one).
    """

    def __init__(self, ctx: PartitionContext, build=StageCosts):
        self._ctx = ctx
        self._build = build
        self._by_r: dict[int, StageCosts] = {}

    def __call__(self, r: int) -> StageCosts:
        costs = self._by_r.get(r)
        if costs is None:
            costs = self._by_r[r] = self._build(self._ctx, r)
        return costs


def _het_frontiers(
    ctx: PartitionContext,
    L: int,
    S: int,
    D: int,
    caches: PlannerCaches,
) -> tuple[list[dict[tuple, tuple[tuple, ...]]], dict[int, float]]:
    """The (memoized) Pareto-DP table of :func:`_partition_heterogeneous`.

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

    Tables live in ``caches.het``: the ``(layers, stages, devices)``
    Pareto tables depend only on (component, L, S, D, the per-group
    micro-batch size, the communication constants, the
    self-conditioning flag) — not on the micro-batch *count* M or the
    self-conditioning probability, which enter only the final objective
    selection — so sweeps sharing one DB (planner + SPP + ablation
    variants via one :class:`PlannerCaches`) share the expensive DP
    work, and the tables die with the profile.
    """
    key = (
        ctx.component,
        L,
        S,
        D,
        ctx.micro_batch,
        ctx.p2p,
        # One heterogeneous table spans every replica count, so the key
        # carries the sync model's identity (the resolver's constant
        # tuple, or the flat CommCosts pair when no resolver is set).
        ctx.sync_key,
        ctx.self_conditioning,
        # See _chain_frontiers: zero-bubble tables carry the ramp bound
        # in the second coordinate and must not alias default ones.
        ctx.zb_pricing,
        # Per-device speed factors (the table's windows are internal to
        # the DP state, so the tuple alone suffices; D is above).
        ctx.speed_scales,
    )
    cached = caches.het.get(ctx.profile, key)
    if cached is not None:
        return cached

    from . import partition_kernels

    # Looked up at call time, like the chain builder.
    history, tf_by_r = partition_kernels.het_table_array(ctx, L, S, D)
    history = [
        {state: tuple(entries) for state, entries in stage.items()}
        for stage in history
    ]
    cached = (history, tf_by_r)
    caches.het.put(ctx.profile, key, cached)
    return cached


def _partition_heterogeneous(
    ctx: PartitionContext,
    S: int,
    D: int,
    caches: PlannerCaches,
) -> PartitionPlan:
    """General DP with per-stage replica counts (Eqns. 7-9).

    State: (layers consumed, stages used, devices consumed) -> Pareto
    frontier of (W, W_sc, Y) with backtracking info (cut, replicas,
    parent index).  Stage costs depend on the stage's own replica count;
    :class:`StageCosts` are built lazily per used ``r`` and the DP table
    is memoized per profile (``caches.het``), so only the final
    M-dependent objective selection runs per call.
    """
    L = ctx.profile.num_layers(ctx.component)
    history, tf_by_r = _het_frontiers(ctx, L, S, D, caches)

    # Accept any full assignment that uses all L layers; devices may be
    # partially used but using all of them never hurts, so prefer d = D.
    finals = [
        (key, e)
        for key, entries in history[S].items()
        if key[0] == L
        for e in entries
    ]
    if not finals:
        raise PartitionError(
            f"no feasible heterogeneous partition of {L} layers into {S} "
            f"stages on {D} devices"
        )
    def tf_for(r: int) -> float:
        # Prepopulated by _het_frontiers for every last-stage r.
        return tf_by_r[r] if ctx.self_conditioning else 0.0

    best_key, best = min(
        finals,
        key=lambda ke: (
            _objective(ctx, S, ke[1][0], ke[1][1], ke[1][2], tf_for(ke[1][4])),
            -ke[0][1],
        ),
    )
    obj = _objective(ctx, S, best[0], best[1], best[2], tf_for(best[4]))

    # Backtrack.
    assignments: list[StageAssignment] = []
    l, d, entry = best_key[0], best_key[1], best
    for s in range(S, 0, -1):
        c, r = entry[3], entry[4]
        assignments.append(StageAssignment(ctx.component, c, l, replicas=r))
        parent_key = (c, d - r)
        entry = history[s - 1][parent_key][entry[5]]
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
        t_max_ms=obj,
        w_ms=_expected_w(ctx, best[0], best[1]),
        y_ms=best[2],
        self_conditioning=ctx.self_conditioning,
    )
