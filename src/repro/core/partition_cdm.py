"""Bidirectional partitioning for cascaded diffusion models (§4.2).

Two backbones pipeline over the same device chain in opposite
directions.  Device-chain position ``k`` hosts the down backbone's stage
``k`` and the up backbone's stage ``S-1-k``, so walking the chain
forward assigns a growing *prefix* of the down backbone and a growing
*suffix* of the up backbone.  The DP state is therefore
``(down-prefix, up-suffix, positions-filled)`` with a Pareto frontier of
``(W, Y)`` values, where

    W = max over placed stages of T0 (Eqn. 10, using the 2x-enlarged
        communication of competing bidirectional transfers),
    Y = max over placed stages of T_S - T_C (Eqn. 11),

and the objective is ``(M_CDM + 2S - 2) W + Y`` (Eqn. 12) with
``M_CDM = M_down + M_up`` paired forward/backward stages in the stable
phase.

Replication comes in two flavours of one DP, mirroring the
single-backbone partitioner: the devices-consumed count is part of the
DP state (the general recursion of Eqns. 7-9 applied to the
bidirectional objective).  The default pins every chain position to
``r = D / S`` devices (the paper's evaluation setting), while
``heterogeneous=True`` lets each position pick its own replica count —
shared by the co-located down and up stages, which live on the same
devices.

:func:`cdm_makespan_floor` bounds the simulated makespan of whichever
partition the DP would return without running it, which lets the
planner's bound ladder skip the DP for configurations that cannot win.

Models with more than two backbones are split into two direction groups
whose stage chains are concatenated (§4.2's grouping rule); see
:func:`group_backbones`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..errors import ConfigurationError, PartitionError
from ..profiling.records import ProfileDB
from ..schedule import BIDIRECTIONAL_COMM_SCALE, FLOOR_MARGIN
from .caches import PlannerCaches, default_caches
from .partition import PartitionContext
from .plan import PartitionPlan, StageAssignment, positive_int


@dataclass(frozen=True)
class CDMPartitionContext:
    """Inputs for the two-backbone partitioner.

    ``down`` / ``up`` are single-backbone contexts sharing batch and
    communication constants; their ``component`` fields name the two
    backbones.  Communication inside stage costs is scaled by
    ``comm_scale`` to model link competition: the bidirectional
    family's §4.2 enlargement, so the DP prices the links the simulated
    schedule runs.

    Both contexts must agree on the micro-batch count: the bidirectional
    schedule runs ``M`` paired micro-batches per direction, and the
    objective coefficient ``M_CDM = M_down + M_up`` must describe the
    same schedule the planner simulates.
    """

    down: PartitionContext
    up: PartitionContext
    comm_scale: ClassVar[float] = BIDIRECTIONAL_COMM_SCALE

    def __post_init__(self) -> None:
        if self.down.num_micro_batches <= 0 or self.up.num_micro_batches <= 0:
            raise ConfigurationError("micro-batch counts must be positive")
        if self.down.num_micro_batches != self.up.num_micro_batches:
            raise ConfigurationError(
                "bidirectional pipelines run equal micro-batch counts in "
                f"both directions (got down={self.down.num_micro_batches}, "
                f"up={self.up.num_micro_batches}); the schedule builder and "
                "the Eqn. 12 coefficient would otherwise disagree"
            )
        if self.down.speed_scales != self.up.speed_scales:
            raise ConfigurationError(
                "bidirectional contexts share one device chain, so their "
                "speed_scales must be identical (got "
                f"down={self.down.speed_scales}, up={self.up.speed_scales})"
            )

    @property
    def m_cdm(self) -> int:
        """Paired forward/backward stage count of the stable phase."""
        return self.down.num_micro_batches + self.up.num_micro_batches


def _cut_points(n: int, cut_step: int) -> list[int]:
    """Boundary positions allowed by ``cut_step`` (chain ends always)."""
    return sorted({p for p in range(0, n + 1) if p % cut_step == 0} | {0, n})


def _min_gap(pts: list[int]) -> int:
    """Smallest positive slice the cut grid admits."""
    return min(b - a for a, b in zip(pts, pts[1:]))


def _r_cap(ctx: CDMPartitionContext, fixed_r: int | None) -> int:
    """Largest replica count a chain position may take.

    Physical feasibility: every replica of either co-located stage must
    see at least one sample per micro-batch (the same floor the
    single-backbone DP enforces).  Larger r always lowers a stage's
    modeled compute, so without this cap the free DP would happily pick
    unrunnable sub-sample local batches.  A pinned count is its own cap.
    """
    if fixed_r is not None:
        return fixed_r
    return int(min(ctx.down.micro_batch, ctx.up.micro_batch))


def _cdm_frontiers(
    ctx: CDMPartitionContext,
    S: int,
    D: int,
    caches: PlannerCaches,
    *,
    fixed_r: int | None,
    cut_step: int,
    ld: int,
    lu: int,
) -> list[dict[tuple[int, int, int], tuple[tuple, ...]]]:
    """The (memoized) CDM DP table, for both replication flavours.

    ``frontiers[k][(a, b, d)]`` is the Pareto set of
    (W, Y, prev_a, prev_b, replicas, parent_index) after placing ``k``
    chain positions with down prefix ``a``, up suffix ``b`` and ``d``
    devices consumed.  Each position's replica count is shared by its
    co-located down and up stages — they live on the same devices.
    ``fixed_r`` pins every position to one count on ``D = S * fixed_r``
    devices (uniform replication; the device coordinate is then
    deterministic); ``fixed_r=None`` lets each position choose ``r``
    within the device budget and the per-replica sample floor
    (Eqns. 7-9 applied to the bidirectional objective).  Frontiers are
    frozen to tuples, so the read-only contract is engine-enforced.

    The table is built by :func:`~.partition_kernels.cdm_table_array`,
    which shares geometry transition plans across adjacent stage-local
    batches of a sweep (``caches.kernel_plans``).  Tables live in
    ``caches.cdm``, keyed by the shared profile; the rare split-profile
    contexts stay uncached.  No key holds the micro-batch counts, which
    only scale the final selection.  A pinned table is keyed by the
    stage-local batches, so two (micro-batch, r) combos sharing a local
    batch and sync constants share one table (the backtracker applies
    its caller's own ``r`` to the assignments); a free table is keyed
    by (D, per-group micro-batch), its per-``r`` local batches being
    derived inside.
    """
    down, up = ctx.down, ctx.up
    if fixed_r is None:
        key = (
            "free",
            down.component,
            up.component,
            S,
            D,
            down.micro_batch,
            up.micro_batch,
            down.p2p,
            # One free table spans every replica count, so the key
            # carries the whole sync model, exactly like a free
            # ``PlannerCaches.het`` key.
            down.allreduce,
            up.p2p,
            up.allreduce,
            ctx.comm_scale,
            cut_step,
            down.pricing,
            up.pricing,
            # Per-device speed factors (windows are internal DP state;
            # D is above).
            down.speed_scales,
        )
    else:
        r = fixed_r
        key = (
            "pinned",
            down.component,
            up.component,
            S,
            # Stage-local batch sizes, computed exactly as StageCosts
            # does; the O(L) prefix-sum tables themselves are built only
            # on a cache miss.
            down.micro_batch / r,
            up.micro_batch / r,
            down.p2p,
            # Sync constants resolved for the uniform replica count:
            # with a per-replica-count tuple these differ across r even
            # at one stage-local batch.
            down.allreduce_for(r),
            up.p2p,
            up.allreduce_for(r),
            ctx.comm_scale,
            cut_step,
            # The bidirectional family always prices with the default
            # mode today, but the contexts carry the field, so the key
            # does too.
            down.pricing,
            up.pricing,
            # Speed factors: position k's device window is
            # [k*r, (k+1)*r), so a scaled table depends on the tuple AND
            # on r — two (micro-batch, r) combos sharing a stage-local
            # batch slice different windows.  None keeps homogeneous
            # keys stable.
            None if down.speed_scales is None else (r, down.speed_scales),
        )
    cacheable = down.profile is up.profile
    if cacheable:
        cached = caches.cdm.get(down.profile, key)
        if cached is not None:
            return cached

    from . import partition_kernels

    # Looked up on the module at call time: the differential suites
    # swap in the pure-Python oracle here (tests/oracles/).
    frontiers = partition_kernels.cdm_table_array(
        ctx, S, cut_step=cut_step, ld=ld, lu=lu, D=D,
        r_cap=_r_cap(ctx, fixed_r), fixed_r=fixed_r, plans=caches.kernel_plans,
    )
    frontiers = [
        {state: tuple(entries) for state, entries in stage.items()}
        for stage in frontiers
    ]
    if cacheable:
        caches.cdm.put(down.profile, key, frontiers)
    return frontiers


def _cdm_select_plan(
    ctx: CDMPartitionContext,
    S: int,
    D: int,
    frontiers: list[dict[tuple[int, int, int], list[tuple]]],
    ld: int,
    lu: int,
    *,
    replicas: int | None,
) -> PartitionPlan:
    """Final objective selection + backtrack over a CDM DP table.

    ``replicas`` overrides the per-position count for uniform tables —
    they may be shared across (micro-batch, r) combos with one stage-
    local batch, so the entries' own ``r`` labels the *builder's* call,
    not necessarily this one.  ``None`` keeps each entry's count
    (heterogeneous tables).
    """
    # Accept any full assignment covering both chains; devices may be
    # partially used but using all of them never hurts, so prefer d = D.
    finals = [
        (state, e)
        for state, entries in frontiers[S].items()
        if state[0] == ld and state[1] == lu
        for e in entries
    ]
    if not finals:
        flavour = "heterogeneous bidirectional" if replicas is None else (
            "bidirectional"
        )
        raise PartitionError(
            f"no feasible {flavour} partition into {S} stages on {D} devices"
        )
    coeff = ctx.m_cdm + 2 * S - 2
    best_state, best = min(
        finals,
        key=lambda se: (coeff * se[1][0] + se[1][1], se[1][0], -se[0][2]),
    )
    obj = coeff * best[0] + best[1]

    # Backtrack both chains plus the per-position replica counts.  The
    # loop walks chain positions S-1..0; down slices are collected in
    # reverse chain order, while the up slice of position S-1-j is up
    # stage j, so the up collection is already in stage order.
    down_cuts: list[tuple[int, int, int]] = []
    up_cuts: list[tuple[int, int, int]] = []
    a, b, d, entry = ld, lu, best_state[2], best
    for k in range(S, 0, -1):
        pa, pb, r = entry[2], entry[3], entry[4]
        pos_r = replicas if replicas is not None else r
        down_cuts.append((pa, a, pos_r))
        up_cuts.append((lu - b, lu - pb, pos_r))
        entry = frontiers[k - 1][(pa, pb, d - r)][entry[5]]
        a, b, d = pa, pb, d - r
    down_cuts.reverse()

    down = tuple(
        StageAssignment(ctx.down.component, lo, hi, replicas=r)
        for lo, hi, r in down_cuts
    )
    up = tuple(
        StageAssignment(ctx.up.component, lo, hi, replicas=r)
        for lo, hi, r in up_cuts
    )
    for chain in (down, up):
        for i in range(1, len(chain)):
            if chain[i].lo != chain[i - 1].hi:
                raise PartitionError(
                    "backtracking produced a non-contiguous chain"
                )
    return PartitionPlan(
        down=down,
        up=up,
        num_stages=S,
        num_micro_batches=ctx.down.num_micro_batches,
        group_size=D,
        batch_per_group=ctx.down.batch_per_group,
        t_max_ms=obj,
        w_ms=best[0],
        y_ms=best[1],
        self_conditioning=False,
    )


def _cdm_lattice(
    ctx: CDMPartitionContext,
    S: int,
    D: int,
    cut_step: int,
    heterogeneous: bool,
) -> tuple[int, int, int | None]:
    """Check a bidirectional partition request; returns the backbone
    layer counts and the pinned replica count (``None``:
    heterogeneous).  Raises :class:`PartitionError` where no partition
    can exist and :class:`ConfigurationError` on malformed arguments."""
    if S <= 0 or D <= 0:
        raise ConfigurationError("num_stages and group_size must be positive")
    if not positive_int(cut_step):
        raise ConfigurationError(
            f"cut_step must be an integer >= 1, got {cut_step!r}"
        )
    if S > D:
        raise PartitionError(f"cannot place {S} stages on {D} devices")
    if (
        ctx.down.speed_scales is not None
        and len(ctx.down.speed_scales) != D
    ):
        raise ConfigurationError(
            f"speed_scales must carry one factor per group device "
            f"(got {len(ctx.down.speed_scales)} for group size {D})"
        )

    ld = ctx.down.profile.num_layers(ctx.down.component)
    lu = ctx.up.profile.num_layers(ctx.up.component)
    if S > ld or S > lu:
        raise PartitionError(
            f"cannot cut backbones of {ld}/{lu} layers into {S} stages"
        )
    if heterogeneous:
        return ld, lu, None

    if D % S != 0:
        raise PartitionError(
            f"uniform CDM replication needs S | D (got S={S}, D={D}); "
            "use heterogeneous=True otherwise"
        )
    r = D // S
    if ctx.down.micro_batch < r or ctx.up.micro_batch < r:
        # Same per-replica sample floor the heterogeneous DP enforces
        # (r_cap), keeping the het-CDM <= uniform-CDM invariant exact.
        raise PartitionError(
            f"uniform replication r={r} needs at least {r} samples per "
            f"micro-batch in both directions (got "
            f"{ctx.down.micro_batch:g}/{ctx.up.micro_batch:g})"
        )
    return ld, lu, r


def partition_cdm(
    ctx: CDMPartitionContext,
    num_stages: int,
    group_size: int,
    *,
    cut_step: int = 1,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
) -> PartitionPlan:
    """Optimal bidirectional partition of two backbones (Eqns. 13-16).

    With ``heterogeneous=False`` every chain position replicates on
    ``group_size / num_stages`` devices (the paper's evaluation
    setting); with ``heterogeneous=True`` each position picks its own
    replica count — shared by its co-located down and up stages — so
    non-divisible ``(S, D)`` combinations become plannable.

    ``cut_step`` must be an integer >= 1.  A step above 1 restricts
    stage boundaries to its multiples (chain ends always allowed),
    shrinking the O(L^2) transition space for long backbones at
    negligible quality cost on near-uniform chains.

    Each state keeps its full Pareto set of ``(W, Y)``: in two
    dimensions every entry has a distinct ``W``, and ``W`` is always
    one placed stage's time, so a frontier never holds more entries
    than there are distinct stage times at that state.

    DP tables are memoized in ``caches`` (the process-wide default
    instance when ``None``).
    """
    caches = caches if caches is not None else default_caches()
    S, D = num_stages, group_size
    ld, lu, fixed_r = _cdm_lattice(ctx, S, D, cut_step, heterogeneous)
    frontiers = _cdm_frontiers(
        ctx, S, D, caches, fixed_r=fixed_r, cut_step=cut_step, ld=ld, lu=lu
    )
    return _cdm_select_plan(ctx, S, D, frontiers, ld, lu, replicas=fixed_r)


def cdm_makespan_floor(
    ctx: CDMPartitionContext,
    num_stages: int,
    group_size: int,
    *,
    cut_step: int = 1,
    heterogeneous: bool = False,
    caches: PlannerCaches | None = None,
) -> float:
    """Lower bound on the simulated bidirectional makespan of every
    partition :func:`partition_cdm` can return for the same arguments,
    without running its DP.

    With ``M`` micro-batches per direction, chain position ``k``'s
    devices run ``M`` forward and backward passes of both co-located
    stages, and one micro-batch's forward and backward path through
    either chain is a dependency chain ending in its stage 0's sync, so

        makespan >= max(M * W*, CP_down*, CP_up*)

    with each term minimised over the DP's whole lattice (see
    :func:`~.partition_kernels.cdm_floor_array`): it holds whichever
    partition the DP picks.  The terms sum in a different order from
    the simulator, so the result gives up a relative
    :data:`~repro.schedule.FLOOR_MARGIN`.  Raises :class:`PartitionError` exactly where
    :func:`partition_cdm` does.  The geometry plan comes from, and is
    kept in, ``caches.kernel_plans``.
    """
    caches = caches if caches is not None else default_caches()
    S, D = num_stages, group_size
    ld, lu, fixed_r = _cdm_lattice(ctx, S, D, cut_step, heterogeneous)
    from . import partition_kernels

    w, cp_down, cp_up = partition_kernels.cdm_floor_array(
        ctx, S, cut_step=cut_step, ld=ld, lu=lu, D=D,
        r_cap=_r_cap(ctx, fixed_r), fixed_r=fixed_r, plans=caches.kernel_plans,
    )
    busy = ctx.down.num_micro_batches * w
    return max(busy, cp_down, cp_up) * (1.0 - FLOOR_MARGIN)


def group_backbones(
    profile: ProfileDB, backbones: list[str], batch: float
) -> tuple[list[str], list[str]]:
    """Split >2 backbones into two direction groups (§4.2).

    Groups are balanced greedily by total forward+backward time so the
    two concatenated chains have similar load (longest-processing-time
    heuristic).  Returns (down group, up group), each in cascade order.
    """
    if len(backbones) < 2:
        raise ConfigurationError("grouping needs at least two backbones")
    weights = {
        name: profile.component_train_ms(name, batch) for name in backbones
    }
    down: list[str] = []
    up: list[str] = []
    down_w = up_w = 0.0
    for name in sorted(backbones, key=lambda n: -weights[n]):
        if down_w <= up_w:
            down.append(name)
            down_w += weights[name]
        else:
            up.append(name)
            up_w += weights[name]
    # Restore cascade order within each group.
    order = {name: i for i, name in enumerate(backbones)}
    down.sort(key=order.__getitem__)
    up.sort(key=order.__getitem__)
    return down, up
