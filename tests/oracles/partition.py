"""Oracles of the single-backbone partition DPs (§4.1, §4.3).

The pure-Python Pareto recursions the array kernels of
:mod:`repro.core.partition_kernels` replaced.  They evaluate the same
``max`` compositions in the same order, so the kernels must reproduce
their tables bit for bit, entry order included.  Every candidate goes
through :func:`pareto_insert`, the sequential frontier fold the CDM
oracle shares.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import inf

from repro.core.partition import PartitionContext, StageCosts, _LazyStageCosts


def pareto_insert(
    frontier: list[tuple], candidate: tuple, value_dims: int
) -> bool:
    """Insert ``candidate`` whose first ``value_dims`` entries are the
    objective coordinates; drop it (return False) if dominated, and prune
    points it dominates.

    The sequential Pareto fold of the DP oracles.  Folding a stream
    through it in arrival order keeps exactly the candidates the array
    kernels' drop masks keep (``_staircase_drop`` for two coordinates,
    ``_peel_drop`` for three; ``tests/test_pareto_folds.py``)."""
    if value_dims == 3:
        # Hot path of the 1F1B DP oracles: unrolled comparisons (same
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
        # Two coordinates: the fold of the CDM DP oracle, unrolled
        # like the branch above.
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


def chain_frontiers_reference(
    ctx: PartitionContext, r: int, L: int, S: int
) -> tuple[list[list[list[tuple]]], float]:
    """Pure-Python DP over prefixes for a uniform replica count ``r``:
    ``(history, tf)`` with ``history[s][l]`` the frontier of
    ``(w, w_sc, y, cut, parent_index)`` for ``l`` layers in ``s``
    stages.

    The recursion the uniform-replication partitioner ran before it
    became the 1F1B DP with a pinned replica count; it is the
    reference the fold test holds ``het_table_array(fixed_r=r)`` to.
    """
    costs = StageCosts(ctx, r)
    comp_scale = ctx.comp_scale
    prev: list[list[tuple]] = [[] for _ in range(L + 1)]
    prev[0] = [(0.0, 0.0, float("-inf"), -1, -1)]
    history: list[list[list[tuple]]] = [prev]

    for s in range(1, S + 1):
        cur: list[list[tuple]] = [[] for _ in range(L + 1)]
        # Stage s (1-based) replicates on the group-local device window
        # [(s-1)r, sr); its compute runs at the window's bottleneck pace.
        sigma = ctx.window_scale((s - 1) * r, r)
        # A prefix of l layers in s stages needs l >= s and leaves at
        # least S - s layers for the remaining stages.
        for l in range(s, L - (S - s) + 1):
            frontier: list[tuple] = []
            for c in range(s - 1, l):
                parents = prev[c]
                if not parents:
                    continue
                t0 = costs.t0(c, l, sigma)
                if ctx.self_conditioning:
                    t0_sc = costs.t0_sc(c, l, sigma)
                elif ctx.zb_pricing:
                    # The second coordinate carries the split-backward
                    # ramp bound (see _objective); dominance over the
                    # triple is still a monotone max-composition.
                    t0_sc = costs.t0_ramp(c, l, sigma)
                else:
                    t0_sc = t0
                gap = costs.sync_gap(c, l, comp_scale)
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
    ctx: PartitionContext, L: int, S: int, D: int, fixed_r: int | None = None
) -> tuple[list[dict[tuple, list[tuple]]], dict[int, float]]:
    """Pure-Python differential oracle of ``het_table_array``: the
    ``(history, tf_by_r)`` table behind ``partition._het_frontiers``.
    ``fixed_r`` pins every stage's replica count, as the kernel's does.
    """
    costs_for = _LazyStageCosts(ctx)
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
            if fixed_r is None:
                max_r = min(D - pd - stages_left, r_cap)
                if max_r <= 0:
                    continue
                r_values = range(1, max_r + 1)
            else:
                r_values = (fixed_r,)
            if stages_left:
                # Leave at least one layer per remaining stage.
                l_values = range(pl + 1, L - stages_left + 1)
            else:
                # Last stage: only the full-chain prefix can become a
                # feasible plan; partial prefixes are dead states.
                l_values = (L,)
            for l in l_values:
                for r in r_values:
                    # The stage would occupy the group-local window
                    # [pd, pd+r); under mixed speeds its compute runs at
                    # the window's bottleneck factor, which joins the
                    # memo key (equal windows still share).
                    w = ctx.window_scale(pd, r)
                    seg_key = (r, pl, l, w)
                    vals = seg.get(seg_key)
                    if vals is None:
                        costs = costs_for(r)
                        t0 = costs.t0(pl, l, w)
                        if ctx.self_conditioning:
                            t0_sc = costs.t0_sc(pl, l, w)
                        elif ctx.zb_pricing:
                            t0_sc = costs.t0_ramp(pl, l, w)
                        else:
                            t0_sc = t0
                        gap = costs.sync_gap(pl, l, comp_scale)
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


def het_floor_reference(
    ctx: PartitionContext,
    L: int,
    S: int,
    D: int,
    *,
    r_cap: int,
    fixed_r: int | None,
    split_backward: bool = False,
    comm_scale: float = 1.0,
) -> tuple[tuple[float, float, float], ...]:
    """Brute-force oracle of ``het_floor_array``: ``(W*, V*, CP*)`` of
    the plain build and, under self-conditioning, of the self-conditioned
    one, as minima over every complete partition the 1F1B lattice holds,
    enumerated one by one — ``S`` non-empty slices of the ``L`` layers,
    and per-stage replica counts that are pinned, or at most ``r_cap``
    each and ``D`` in total.  ``W*`` is the least busiest stage (the
    kernel's ``V*`` before it priced the ramp, kept for the property
    that ``V* >= M·W*``).  ``V*`` reads ``R`` of every prefix state
    ``(k, l, d)``, itself brute-forced as the least ramp sum over every
    partition's prefixes that reach it.  Each partition is priced stage
    by stage in the kernel's float order, so the minima match it
    exactly; all are ``inf`` when the lattice holds no partition.
    """
    costs_for = _LazyStageCosts(ctx)
    M = ctx.num_micro_batches
    if fixed_r is not None:
        replica_seqs = [(fixed_r,) * S]
    else:
        r_max = min(r_cap, D - S + 1)
        replica_seqs = [
            rs for rs in product(range(1, r_max + 1), repeat=S) if sum(rs) <= D
        ]

    @cache
    def stage(costs, lo, hi, w, sc):
        """The stage's (compute, path term) in one build."""
        compute = (costs.fwd(lo, hi) + costs.bwd(lo, hi)) / w
        if split_backward:
            path = (costs.fwd(lo, hi) + costs.bwd_b(lo, hi)) / w
        else:
            path = compute
        if sc:
            compute = compute + costs.fwd(lo, hi) / w
            path = path + costs.fwd(lo, hi) / w
        if hi < L:
            path = path + (3.0 if sc else 2.0) * comm_scale * costs.send_ms(hi)
        elif sc:
            path = path + comm_scale * costs.feedback_ms()
        if lo == 0:
            if split_backward:
                path = path + costs.bwd_w(0, hi) / w
            path = path + costs.sync_ms(0, hi)
        return compute, path

    def ramp(costs, lo, hi, w):
        """What the stage adds to every later stage's ``R``: its plain
        path term, or under split backward its forward and send."""
        if not split_backward:
            return stage(costs, lo, hi, w, False)[1]
        head = costs.fwd(lo, hi) / w
        return head + comm_scale * costs.send_ms(hi) if hi < L else head

    def walk(cuts, rs):
        """Each stage's (slice, replicas, window factor, prefix state)."""
        bounds = (0, *cuts, L)
        pd = 0
        for k in range(S):
            r = rs[k]
            yield bounds[k], bounds[k + 1], r, ctx.window_scale(pd, r), (
                k, bounds[k], pd,
            )
            pd += r

    partitions = [
        (cuts, rs)
        for cuts in combinations(range(1, L), S - 1)
        for rs in replica_seqs
    ]
    R = {}
    for cuts, rs in partitions:
        acc = 0.0
        for lo, hi, r, w, state in walk(cuts, rs):
            R[state] = min(R.get(state, inf), acc)
            acc = acc + ramp(costs_for(r), lo, hi, w)

    builds = (False, True) if ctx.self_conditioning else (False,)
    best = {sc: [inf, inf, inf] for sc in builds}
    for cuts, rs in partitions:
        for sc in builds:
            w_max = v = cp = 0.0
            for lo, hi, r, w, state in walk(cuts, rs):
                compute, path = stage(costs_for(r), lo, hi, w, sc)
                w_max = max(w_max, compute)
                v = max(v, M * compute + R[state])
                cp = cp + path
            best[sc] = [min(b, x) for b, x in zip(best[sc], (w_max, v, cp))]
    return tuple(tuple(best[sc]) for sc in builds)
