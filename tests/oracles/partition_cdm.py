"""Oracle of the bidirectional CDM partition DP (§4.2).

One recursion serves both replication flavours, like the production
``_cdm_frontiers``: ``fixed_r`` pins every chain position's replica
count, ``fixed_r=None`` lets each position choose.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import inf

import numpy as np

from repro.core.partition import _LazyStageCosts
from repro.core.partition_kernels import _ragged_arange
from repro.core.partition_cdm import CDMPartitionContext, _cut_points, _min_gap

from .partition import pareto_insert


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


def cdm_floor_reference(
    ctx: CDMPartitionContext,
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
) -> tuple[float, float, float]:
    """Brute-force oracle of ``cdm_floor_array``: ``(W*, CP_down*,
    CP_up*)`` as minima over every complete partition the CDM lattice
    holds, enumerated one by one — ``S`` slices of each backbone cut on
    the grid, and per-position replica counts that are pinned, or at
    most ``r_cap`` each and ``D`` in total.  Each partition is priced
    position by position in the kernel's float order, so the minima
    match it exactly; all three are ``inf`` when the lattice holds no
    partition.
    """
    costs_d = _LazyStageCosts(ctx.down)
    costs_u = _LazyStageCosts(ctx.up)
    link = 2.0 * ctx.comm_scale
    inner_d = _cut_points(ld, cut_step)[1:-1]
    inner_u = _cut_points(lu, cut_step)[1:-1]
    if fixed_r is not None:
        replica_seqs = [(fixed_r,) * S]
    else:
        r_max = min(r_cap, D - S + 1)
        replica_seqs = [
            rs for rs in product(range(1, r_max + 1), repeat=S) if sum(rs) <= D
        ]

    @cache
    def compute(costs, lo, hi, w):
        return (costs.fwd(lo, hi) + costs.bwd(lo, hi)) / w

    @cache
    def send(costs, hi):
        return link * costs.send_ms(hi)

    @cache
    def sync(costs, hi):
        return costs.sync_ms(0, hi)

    best = [inf, inf, inf]
    for cd in combinations(inner_d, S - 1):
        a = (0, *cd, ld)
        for cu in combinations(inner_u, S - 1):
            # Up boundaries as suffix lengths: position k's up stage
            # covers [lu - b[k], lu - b[k - 1]).
            b = (0, *cu, lu)
            for rs in replica_seqs:
                w_max = cp_d = cp_u = 0.0
                pd = 0
                for k in range(1, S + 1):
                    r = rs[k - 1]
                    w = ctx.down.window_scale(pd, r)
                    cost_d, cost_u = costs_d(r), costs_u(r)
                    lo_u, hi_u = lu - b[k], lu - b[k - 1]
                    down = compute(cost_d, a[k - 1], a[k], w)
                    up = compute(cost_u, lo_u, hi_u, w)
                    path_d = down + send(cost_d, a[k]) if k < S else down
                    path_u = up + send(cost_u, hi_u) if k > 1 else up
                    if k == 1:
                        path_d = path_d + sync(cost_d, a[k])
                    if k == S:
                        path_u = path_u + sync(cost_u, hi_u)
                    w_max = max(w_max, down + up)
                    cp_d = cp_d + path_d
                    cp_u = cp_u + path_u
                    pd += r
                best = [min(x, y) for x, y in zip(best, (w_max, cp_d, cp_u))]
    return best[0], best[1], best[2]


def cdm_plan_reference(
    *,
    S: int,
    ld: int,
    lu: int,
    cuts_d: list[int],
    cuts_u: list[int],
    gap_d: int,
    gap_u: int,
    max_len_d: int,
    max_len_u: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    by_r: bool = False,
) -> list[dict]:
    """Reference of the CDM geometry plan builder
    (``repro.core.partition_kernels._build_cdm_plan``): the grouping it
    replaced, kept as the differential oracle of its arrays.

    Per chain position it enumerates the (parent, a, r, b) transitions
    in the DP's loop order — parents in creation order, down cut outer,
    replica count middle, up cut inner — and groups them by target state
    ``(a, b, d)`` in first-arrival order with ``np.unique`` and two
    stable argsorts; ``by_r`` groups the last position's by ``(a, b, d,
    r)``, as the 1F1B DP keys its final states.  Each stage dict holds
    the transitions' parent index ``P``, down cut ``A``, up cut ``B`` and
    replica count ``R``, the parent states ``PA`` / ``PB`` / ``PD``, the
    target segments ``tb_starts`` / ``tb_counts`` and the target states
    ``TA`` / ``TB`` / ``TD``.
    """
    cuts_d_arr = np.asarray(cuts_d, dtype=np.int64)
    cuts_u_arr = np.asarray(cuts_u, dtype=np.int64)
    plan: list[dict] = []
    PA = np.zeros(1, dtype=np.int64)
    PB = np.zeros(1, dtype=np.int64)
    PD = np.zeros(1, dtype=np.int64)
    for k in range(1, S + 1):
        remaining = S - k
        room_d = ld - remaining * gap_d
        room_u = lu - remaining * gap_u
        if fixed_r is not None:
            nr = np.ones(len(PA), dtype=np.int64)
        else:
            nr = np.maximum(
                np.minimum(D - PD - remaining, r_cap), 0
            )
        if remaining:
            a_lo = np.searchsorted(cuts_d_arr, PA, side="right")
            a_hi = np.searchsorted(
                cuts_d_arr, np.minimum(room_d, PA + max_len_d), side="right"
            )
            b_lo = np.searchsorted(cuts_u_arr, PB, side="right")
            b_hi = np.searchsorted(
                cuts_u_arr, np.minimum(room_u, PB + max_len_u), side="right"
            )
            na = np.maximum(a_hi - a_lo, 0)
            nb = np.maximum(b_hi - b_lo, 0)
        else:
            a_lo = np.searchsorted(cuts_d_arr, ld, side="left") * np.ones(
                len(PA), dtype=np.int64
            )
            b_lo = np.searchsorted(cuts_u_arr, lu, side="left") * np.ones(
                len(PB), dtype=np.int64
            )
            na = np.ones(len(PA), dtype=np.int64)
            nb = np.ones(len(PB), dtype=np.int64)
        n_per_p = na * nr * nb
        total_b = int(n_per_p.sum())
        if total_b == 0:
            plan.append(
                {
                    "P": np.zeros(0, dtype=np.int64),
                    "A": np.zeros(0, dtype=np.int64),
                    "B": np.zeros(0, dtype=np.int64),
                    "R": np.zeros(0, dtype=np.int64),
                    "PA": PA, "PB": PB, "PD": PD,
                    "tb_starts": np.zeros(0, dtype=np.int64),
                    "tb_counts": np.zeros(0, dtype=np.int64),
                    "TA": np.zeros(0, dtype=np.int64),
                    "TB": np.zeros(0, dtype=np.int64),
                    "TD": np.zeros(0, dtype=np.int64),
                }
            )
            PA = PB = PD = np.zeros(0, dtype=np.int64)
            continue
        P_b = np.repeat(np.arange(len(PA), dtype=np.int64), n_per_p)
        local = _ragged_arange(n_per_p)
        nrnb = (nr * nb)[P_b]
        nb_b = nb[P_b]
        ia = local // nrnb
        ir = (local % nrnb) // nb_b
        ib = local % nb_b
        A_b = cuts_d_arr[a_lo[P_b] + ia]
        B_b = cuts_u_arr[b_lo[P_b] + ib]
        if fixed_r is not None:
            R_b = np.full(total_b, fixed_r, dtype=np.int64)
        else:
            R_b = 1 + ir
        D_b = PD[P_b] + R_b

        code = (A_b * (lu + 1) + B_b) * (D + 1) + D_b
        if by_r and not remaining:
            code = code * (r_cap + 1) + R_b
        uniq, first, inverse = np.unique(
            code, return_index=True, return_inverse=True
        )
        rank_of_uniq = np.empty(len(uniq), dtype=np.int64)
        rank_of_uniq[np.argsort(first, kind="stable")] = np.arange(
            len(uniq), dtype=np.int64
        )
        t_rank = rank_of_uniq[inverse]
        perm = np.argsort(t_rank, kind="stable")
        P_b, A_b, B_b, R_b, D_b, t_rank = (
            P_b[perm], A_b[perm], B_b[perm], R_b[perm], D_b[perm],
            t_rank[perm],
        )
        nt = len(uniq)
        tb_counts = np.bincount(t_rank, minlength=nt)
        tb_starts = np.cumsum(tb_counts) - tb_counts
        plan.append(
            {
                "P": P_b, "A": A_b, "B": B_b, "R": R_b,
                "PA": PA, "PB": PB, "PD": PD,
                "tb_starts": tb_starts, "tb_counts": tb_counts,
                "TA": A_b[tb_starts], "TB": B_b[tb_starts],
                "TD": D_b[tb_starts],
            }
        )
        PA, PB, PD = A_b[tb_starts], B_b[tb_starts], D_b[tb_starts]
    return plan
