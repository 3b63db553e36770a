"""Oracle of the bidirectional CDM partition DP (§4.2).

One recursion serves both replication flavours, like the production
``_cdm_frontiers``: ``fixed_r`` pins every chain position's replica
count, ``fixed_r=None`` lets each position choose.
"""

from __future__ import annotations

from repro.core.partition import _LazyStageCosts, pareto_insert
from repro.core.partition_cdm import CDMPartitionContext, _cut_points, _min_gap


def _seg_eval(costs_for, comp_scale: float):
    """Lazy per-``(r, lo, hi, window-scale)`` segment ``(t0, sync_gap)``
    memo.

    The eager predecessor tabulated every cut-point pair up front; the
    DPs' feasibility pruning touches far fewer slices (only lengths
    ``<= L - (S-1) * min-cut`` can appear in a completable partition),
    so slices are now evaluated on first use and memoized.  The uniform
    DP calls it with its one fixed replica count; the heterogeneous DP
    spans every ``r``.  The slice's compute is divided by its window
    scale ``w`` (1.0 on homogeneous groups); equal windows share a memo
    entry.
    """
    memo: dict[tuple, tuple[float, float]] = {}

    def get(r: int, lo: int, hi: int, w: float):
        key = (r, lo, hi, w)
        v = memo.get(key)
        if v is None:
            costs = costs_for(r)
            v = memo[key] = (
                costs.t0(lo, hi, w),
                costs.sync_gap(lo, hi, comp_scale),
            )
        return v

    return get


def cdm_dp_table_reference(
    ctx: CDMPartitionContext,
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
) -> list[dict[tuple[int, int, int], list[tuple]]]:
    """Pure-Python differential oracle of ``cdm_table_array``: the
    frontier list behind ``partition_cdm._cdm_frontiers``.  Every
    candidate goes through ``pareto_insert``, and no frontier is ever
    truncated.
    """
    comp_scale = ctx.down.comp_scale
    eval_d = _seg_eval(_LazyStageCosts(ctx.down, ctx.comm_scale), comp_scale)
    eval_u = _seg_eval(_LazyStageCosts(ctx.up, ctx.comm_scale), comp_scale)

    cuts_d = _cut_points(ld, cut_step)
    # Up-backbone boundaries are addressed as suffix lengths ``b``; the
    # layer positions they induce are ``lu - b``.
    cuts_u = _cut_points(lu, cut_step)
    pts_u = sorted({lu - b for b in cuts_u})

    # Feasibility bounds from the cut grid: every stage covers at least
    # one inter-cut gap, so no slice in a completable partition exceeds
    # ``L - (S-1) * min-gap`` and a prefix must leave the remaining
    # positions ``remaining * min-gap`` layers of room.  States outside
    # these bounds can never reach full coverage; pruning them shrinks
    # the quadratic transition space without changing any reachable
    # final frontier.
    gap_d = _min_gap(cuts_d)
    gap_u = _min_gap(pts_u)
    max_len_d = ld - (S - 1) * gap_d
    max_len_u = lu - (S - 1) * gap_u

    frontiers: list[dict[tuple[int, int, int], list[tuple]]] = [
        {(0, 0, 0): [(0.0, float("-inf"), -1, -1, 0, -1)]}
    ]
    for k in range(1, S + 1):
        cur: dict[tuple[int, int, int], list[tuple]] = {}
        remaining = S - k
        room_d = ld - remaining * gap_d
        room_u = lu - remaining * gap_u
        for (pa, pb, pd), parents in frontiers[k - 1].items():
            if fixed_r is not None:
                r_iter = (fixed_r,)
            else:
                # Device-count pruning: every remaining position needs
                # at least one device, so replica counts beyond
                # ``D - pd - remaining`` lead to unreachable states and
                # are never generated (nor their prefix sums built).
                max_r = min(D - pd - remaining, r_cap)
                if max_r <= 0:
                    continue
                r_iter = range(1, max_r + 1)
            # Down stage k-1 covers [pa, a); up stage S-k covers
            # [lu - b, lu - pb).
            if remaining:
                hi_a = min(room_d, pa + max_len_d)
                hi_b = min(room_u, pb + max_len_u)
                a_iter = [a for a in cuts_d if pa < a <= hi_a]
                b_iter = [b for b in cuts_u if pb < b <= hi_b]
            else:
                # Last position: only full-coverage states can become a
                # feasible plan; partial pairs are dead states.
                a_iter = (ld,)
                b_iter = (lu,)
            for a in a_iter:
                for r in r_iter:
                    # Position k-1 occupies the device window
                    # [pd, pd+r); its down AND up stage are co-located
                    # there, so one bottleneck factor scales both.
                    w = ctx.down.window_scale(pd, r)
                    td, gd = eval_d(r, pa, a, w)
                    for b in b_iter:
                        tu, gu = eval_u(r, lu - b, lu - pb, w)
                        w_stage = max(td, tu)
                        y_stage = max(gd, gu)
                        skey = (a, b, pd + r)
                        frontier = cur.setdefault(skey, [])
                        for pi, parent in enumerate(parents):
                            cand = (
                                max(parent[0], w_stage),
                                max(parent[1], y_stage),
                                pa,
                                pb,
                                r,
                                pi,
                            )
                            pareto_insert(frontier, cand, 2)
        frontiers.append(cur)
    return frontiers
