"""Oracles of the single-backbone partition DPs (§4.1, §4.3).

The pure-Python Pareto recursions the array kernels of
:mod:`repro.core.partition_kernels` replaced.  They evaluate the same
``max`` compositions in the same order, so the kernels must reproduce
their tables bit for bit, entry order included.
"""

from __future__ import annotations

from repro.core.partition import (
    PartitionContext,
    StageCosts,
    _LazyStageCosts,
    pareto_insert,
)


def chain_frontiers_reference(
    ctx: PartitionContext, r: int, L: int, S: int
) -> tuple[list[list[list[tuple]]], float]:
    """Pure-Python differential oracle of ``chain_table_array``: the
    ``(history, tf)`` table behind ``partition._chain_frontiers``.
    """
    costs = StageCosts(ctx, r)
    scaled = ctx.speed_scales is not None
    comp_scale = ctx.comp_scale
    prev: list[list[tuple]] = [[] for _ in range(L + 1)]
    prev[0] = [(0.0, 0.0, float("-inf"), -1, -1)]
    history: list[list[list[tuple]]] = [prev]

    for s in range(1, S + 1):
        cur: list[list[tuple]] = [[] for _ in range(L + 1)]
        # Stage s (1-based) replicates on the group-local device window
        # [(s-1)r, sr); its compute runs at the window's bottleneck pace.
        sigma = ctx.window_scale((s - 1) * r, r) if scaled else 1.0
        # A prefix of l layers in s stages needs l >= s and leaves at
        # least S - s layers for the remaining stages.
        for l in range(s, L - (S - s) + 1):
            frontier: list[tuple] = []
            for c in range(s - 1, l):
                parents = prev[c]
                if not parents:
                    continue
                if scaled:
                    t0 = costs.t0_scaled(c, l, sigma)
                    if ctx.self_conditioning:
                        t0_sc = costs.t0_sc_scaled(c, l, sigma)
                    elif ctx.zb_pricing:
                        t0_sc = costs.t0_ramp_scaled(c, l, sigma)
                    else:
                        t0_sc = t0
                    gap = costs.sync_gap_scaled(c, l, comp_scale)
                else:
                    t0 = costs.t0(c, l)
                    if ctx.self_conditioning:
                        t0_sc = costs.t0_sc(c, l)
                    elif ctx.zb_pricing:
                        # The second coordinate carries the split-backward
                        # ramp bound (see _objective); dominance over the
                        # triple is still a monotone max-composition.
                        t0_sc = costs.t0_ramp(c, l)
                    else:
                        t0_sc = t0
                    gap = costs.sync_gap(c, l)
                for pi, parent in enumerate(parents):
                    pw, pwsc, py = parent[0], parent[1], parent[2]
                    cand = (
                        max(pw, t0),
                        max(pwsc, t0_sc),
                        max(py, gap),
                        c,
                        pi,
                    )
                    pareto_insert(frontier, cand, 3)
            cur[l] = frontier
        history.append(cur)
        prev = cur

    # Feedback time computed while the StageCosts are warm: the final
    # selection would otherwise rebuild the O(L) prefix sums on every
    # warm-path call just for this one value.
    tf = costs.feedback_ms() if ctx.self_conditioning else 0.0
    return history, tf


def het_frontiers_reference(
    ctx: PartitionContext, L: int, S: int, D: int
) -> tuple[list[dict[tuple, list[tuple]]], dict[int, float]]:
    """Pure-Python differential oracle of ``het_table_array``: the
    ``(history, tf_by_r)`` table behind ``partition._het_frontiers``.
    """
    costs_for = _LazyStageCosts(ctx)
    scaled = ctx.speed_scales is not None
    comp_scale = ctx.comp_scale
    #: per-(r, lo, hi, window-scale) segment costs — distinct parent
    #: states reach the same stage slice (and, under mixed speeds, equal
    #: window factors), so the interpolation work is shared.
    seg: dict[tuple, tuple[float, float, float]] = {}
    # Physical feasibility: every stage replica must see at least one
    # sample per micro-batch (the homogeneous sweep enforces the same
    # floor via its r = D/S guard).  Larger r always lowers a stage's
    # modeled compute, so without this cap the DP would happily pick
    # unrunnable sub-sample local batches.
    r_cap = int(ctx.micro_batch)

    # history[s][(l, d)] -> frontier entries (w, w_sc, y, cut, r, parent)
    history: list[dict[tuple[int, int], list[tuple]]] = [
        {(0, 0): [(0.0, 0.0, float("-inf"), -1, 0, -1)]}
    ]
    for s in range(1, S + 1):
        cur: dict[tuple[int, int], list[tuple]] = {}
        stages_left = S - s
        for (pl, pd), parents in history[s - 1].items():
            # Device-count pruning: every remaining stage needs at least
            # one device, so replica counts beyond ``D - pd -
            # stages_left`` lead to unreachable states and are never
            # generated (nor their StageCosts built).
            max_r = min(D - pd - stages_left, r_cap)
            if max_r <= 0:
                continue
            if stages_left:
                # Leave at least one layer per remaining stage.
                l_values = range(pl + 1, L - stages_left + 1)
            else:
                # Last stage: only the full-chain prefix can become a
                # feasible plan; partial prefixes are dead states.
                l_values = (L,)
            for l in l_values:
                for r in range(1, max_r + 1):
                    # The stage would occupy the group-local window
                    # [pd, pd+r); under mixed speeds its compute runs at
                    # the window's bottleneck factor, which joins the
                    # memo key (equal windows still share).
                    w = ctx.window_scale(pd, r)
                    seg_key = (r, pl, l, w)
                    vals = seg.get(seg_key)
                    if vals is None:
                        costs = costs_for(r)
                        if scaled:
                            t0 = costs.t0_scaled(pl, l, w)
                            if ctx.self_conditioning:
                                t0_sc = costs.t0_sc_scaled(pl, l, w)
                            elif ctx.zb_pricing:
                                t0_sc = costs.t0_ramp_scaled(pl, l, w)
                            else:
                                t0_sc = t0
                            gap = costs.sync_gap_scaled(pl, l, comp_scale)
                        else:
                            t0 = costs.t0(pl, l)
                            if ctx.self_conditioning:
                                t0_sc = costs.t0_sc(pl, l)
                            elif ctx.zb_pricing:
                                t0_sc = costs.t0_ramp(pl, l)
                            else:
                                t0_sc = t0
                            gap = costs.sync_gap(pl, l)
                        vals = seg[seg_key] = (t0, t0_sc, gap)
                    t0, t0_sc, gap = vals
                    # Last-stage buckets are additionally keyed by the
                    # stage's own replica count: the feedback term T_F
                    # (§4.3) depends on the *last* stage's r, so entries
                    # that differ only there are incomparable under the
                    # (w, w_sc, y) dominance test and must not prune
                    # each other.
                    state = (l, pd + r, r) if stages_left == 0 else (l, pd + r)
                    frontier = cur.setdefault(state, [])
                    for pi, parent in enumerate(parents):
                        cand = (
                            max(parent[0], t0),
                            max(parent[1], t0_sc),
                            max(parent[2], gap),
                            pl,
                            r,
                            pi,
                        )
                        pareto_insert(frontier, cand, 3)
        history.append(cur)

    # Feedback times for every last-stage replica count, computed here
    # while the StageCosts are still warm (the final selection would
    # otherwise rebuild the O(L) prefix sums on every cold table).
    tf_by_r: dict[int, float] = {}
    if ctx.self_conditioning:
        for state in history[S]:
            r = state[2]
            if r not in tf_by_r:
                tf_by_r[r] = costs_for(r).feedback_ms()

    return history, tf_by_r
