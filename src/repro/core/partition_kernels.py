"""Vectorized numpy engines for the partition DP table builds.

A pure-Python Pareto DP spends essentially all of its cold time in loop
overhead: profiling the oracles (``tests/oracles/``) shows tens of
thousands of ``max``/``pareto_insert`` calls against a few hundred
distinct segment-cost evaluations.  This module builds the tables
behind the two DP wrappers as array kernels —
:func:`het_table_array` for the single-backbone 1F1B DP
(``partition._het_frontiers``) and :func:`cdm_table_array` for the
bidirectional CDM DP (``partition_cdm._cdm_frontiers``), plus
:func:`het_floor_array` and :func:`cdm_floor_array`, the scalar folds
of the bound ladder's pre-partition makespan floors over the same
lattices (the single-backbone one adds the pipeline's fill-and-drain
ramp to each stage's busy time).  Each serves both replication
flavours: ``fixed_r`` pins every stage to one replica count (uniform
replication, the paper's footnote 2), ``fixed_r=None`` lets each stage
choose (Eqns. 7-9).  The table kernels work as follows:

* per-``(cut, prefix)`` stage costs (``t0`` / ``t0_sc`` / ``t0_ramp`` /
  ``sync_gap``) become dense ``(L+1, L+1)`` slabs built from the same
  prefix-sum lists :class:`~.partition.StageCosts` already maintains;
* every kernel's transitions come from one cached geometry plan per
  lattice shape (:func:`_build_cdm_plan`, linear in the transitions),
  which stores each transition's flat slab offsets, so all four
  kernels gather with one 1-D take per slab; a free lattice's floors
  at every replica cap share its uncapped plans, the floor's path
  terms fold over each chain's own, far smaller (cut, device) lattice,
  and a pinned chain's plan serves every replica count; the 1F1B
  lattice is such a chain, so :func:`het_table_array` and
  :func:`het_floor_array` walk one chain plan (:func:`_het_plan`);
* both table kernels fold each position the same way
  (:func:`_fold_position`): a two-coordinate stream — every CDM one,
  and the 1F1B DP's under default pricing — drops every transition
  batch that cannot hold a survivor before expanding it
  (:func:`_prefilter_batches`; a cold heterogeneous cdm-lsun
  ``plan(256)`` on 16 GPUs folds 790,864 candidates instead of
  3,286,157);
* each stage hands its survivors to the next as the columns it just
  computed, with one count per target state, and writes the frontier
  tuples only for the table store;
* Pareto reduction is a sort-based staircase sweep when the frontier
  has two independent coordinates, and a sort-and-peel fold when it
  has three.

The kernels are *differential twins* of the pure-Python recursions they
replaced, which live on as oracles in ``tests/oracles/``: they evaluate
the same ``max``/``+`` compositions in the same associativity,
reconstruct the same backtracking pointers, and emit the same frontier
entries in the same order — bit-identical tables, not just equal
objectives.  The fuzz suite (``tests/test_partition_kernels.py``) diffs
the two.

Exactness notes
---------------

The oracles' sequential fold, ``pareto_insert``, keeps a candidate
iff no other candidate in the same frontier dominates-or-equals it from
an earlier generation position or strictly dominates it from a later
one, and lists survivors in generation order — so the reduction needs
exact comparisons, never arithmetic on the coordinates.  Both kernels
expand every (kept batch, parent entry) candidate in arrival order
(:func:`_expand_batches`) and reduce each target state's stream in one
pass; a batch the prefilter drops holds only candidates a real
candidate of the same stream strictly dominates, which the sequential
fold kills in any arrival order, and the kill relation is transitive,
so dropping it changes no survivor and no order.  The CDM DP and the
1F1B DP under default pricing have two independent coordinates, so one
:func:`_staircase_drop` settles every state; self-conditioning and
zero-bubble pricing keep three, and :func:`_peel_drop` settles those
states in as many vectorized rounds as the widest frontier has
entries.  Both folds sort, and a stable sort (or an explicit tie
repair) keeps arrival order among equal candidates.  No frontier is
ever truncated, so a state's final frontier is exactly its stream's
survivors; ``tests/test_pareto_folds.py`` holds both drop masks, and
the prefilter ahead of the staircase, to the sequential fold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import PartitionError
from .partition import StageCosts, _LazyStageCosts

__all__ = [
    "het_table_array",
    "het_floor_array",
    "cdm_table_array",
    "cdm_floor_array",
]

# -- shared machinery --------------------------------------------------------


def _order_bits(a: np.ndarray) -> np.ndarray:
    """Total-order-preserving ``int64`` view of a float64 array.

    ``-0.0`` is normalised to ``+0.0`` first so numerically equal
    floats map to equal keys; negative values are flipped into
    two's-complement order.  Sorting the keys with an *unstable*
    integer sort is several times faster than numpy's stable float
    sort, and exactness is restored by a separate tie-repair pass.
    """
    b = (a + 0.0).view(np.int64)
    return b ^ ((b >> 63) & 0x7FFFFFFFFFFFFFFF)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for an int array of segment sizes."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _cost_slabs(
    costs: StageCosts,
    L: int,
    *,
    sc: bool,
    zb: bool,
    scale: float,
    comp_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``[lo, hi]`` slabs of ``(t0, alt, sync_gap)``.

    ``alt`` is the frontier's second coordinate: ``t0_sc`` under
    self-conditioning, ``t0_ramp`` under zero-bubble pricing, ``t0``
    otherwise.  Every element reproduces the scalar methods' float
    compositions exactly (prefix-difference, then add, then divide by
    the window factor ``scale``, then max; the compensation divided by
    ``comp_scale``), and the boundary-communication columns come from
    :meth:`StageCosts.boundary_comm_ms`, so the CDM link enlargement
    prices itself.
    """
    F = np.asarray(costs._fwd)
    B = np.asarray(costs._bwd)
    fw = F[None, :] - F[:, None]
    bw = B[None, :] - B[:, None]
    comm1 = np.asarray([costs.boundary_comm_ms(lo) for lo in range(L + 1)])
    t0 = np.maximum((fw + bw) / scale, comm1[:, None])
    if sc:
        comm2 = np.asarray(
            [costs.boundary_comm_ms(lo, forwards=2) for lo in range(L + 1)]
        )
        alt = np.maximum((2.0 * fw + bw) / scale, comm2[:, None])
    elif zb:
        W = np.asarray(costs._bww)
        bb = np.maximum(0.0, bw - (W[None, :] - W[:, None]))
        alt = np.maximum((fw + bb) / scale, comm1[:, None])
    else:
        alt = t0
    G = np.asarray(costs._grad)
    g = G[None, :] - G[:, None]
    sync = np.where(
        g == 0, 0.0, g / costs.sync_costs.bandwidth + costs.sync_costs.latency
    )
    comp = B - costs._bwd[0]
    gap = sync - (comp / comp_scale)[:, None]
    return t0, alt, gap


def _staircase_drop(
    w: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Exact two-column per-segment Pareto drop mask in O(n log n).

    Stable-sorted by ``(w, y)`` within a segment (ties fall back to the
    incoming array order), candidate ``i`` is killed iff some
    sort-predecessor ``j`` of its segment has ``y_j <= y_i``: the
    predecessor's ``w`` is ``<=`` by sort order, and on full value ties
    the stable sort leaves ``j`` earlier — exactly the
    dominates-or-equals-from-earlier / strictly-dominates rule
    ``pareto_insert`` applies, provided the caller's array order is the
    arrival (generation) order.  Survivors are the strict running minima
    of ``y``, so one cumulative minimum replaces the quadratic pairwise
    comparison tensor.

    Segments are contiguous, so instead of one global three-key lexsort
    the sort runs per power-of-two width class as two row-wise stable
    ``argsort`` passes over padded 2-D slabs — much smaller sorts, no
    segment key, and the padding (``+inf``) stays glued to the row
    ends.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(w)
    drop = np.zeros(n, dtype=bool)
    starts = np.cumsum(counts) - counts
    nzseg = np.flatnonzero(counts > 1)
    widths = counts[nzseg]
    rstarts = starts[nzseg]
    if n == 0 or not len(nzseg):
        return drop
    if int(widths.sum()) >= 100_000:
        # Bucket prefilter: on big streams, kill candidates that
        # have a dominator in a strictly earlier ``w`` bucket of their
        # segment before the sort ever sees them.  Bucket edges are
        # strict (the bucket map is nondecreasing in ``w``), so such a
        # dominator has strictly smaller ``w`` and ``y <= y_i`` — a
        # kill under the ``pareto_insert`` rule regardless of arrival
        # order.  Survivors keep arrival order, and every killed
        # dominator has a strictly lex-better one (the chain bottoms
        # out at a prefilter survivor), so the staircase restricted to
        # the survivors reproduces the exact reference drop set.
        nb = 128
        big = np.iinfo(np.int64).max
        nr = len(nzseg)
        fidx = np.repeat(rstarts, widths) + _ragged_arange(widths)
        sid = np.repeat(np.arange(nr, dtype=np.int64), widths)
        wf = w[fidx]
        yb0 = _order_bits(y[fidx])
        offs = np.cumsum(widths) - widths
        lo = np.minimum.reduceat(wf, offs)
        span = np.maximum.reduceat(wf, offs) - lo
        good = np.isfinite(span) & (span > 0)
        scale = np.where(good, nb / np.where(good, span, 1.0), 0.0)
        with np.errstate(invalid="ignore"):
            bf = (wf - lo[sid]) * scale[sid]
        bf = np.nan_to_num(bf, nan=0.0, posinf=float(nb - 1), neginf=0.0)
        bk = np.clip(bf.astype(np.int64), 0, nb - 1)
        bmin = np.full(nr * nb, big, dtype=np.int64)
        np.minimum.at(bmin, sid * nb + bk, yb0)
        excl = np.empty((nr, nb), dtype=np.int64)
        excl[:, 0] = big
        np.minimum.accumulate(
            bmin.reshape(nr, nb)[:, :-1], axis=1, out=excl[:, 1:]
        )
        dead = excl[sid, bk] <= yb0
        if dead.any():
            keep = ~dead
            sub_counts = np.zeros_like(counts)
            sub_counts[nzseg] = np.bincount(sid[keep], minlength=nr)
            svi = fidx[keep]
            drop[fidx[dead]] = True
            drop[svi] = _staircase_drop(w[svi], y[svi], sub_counts)
            return drop
    sent = np.iinfo(np.int64).max
    wb = np.empty(n + 1, dtype=np.int64)
    wb[:n] = _order_bits(w)
    wb[n] = sent
    yb = np.empty(n + 1, dtype=np.int64)
    yb[:n] = _order_bits(y)
    yb[n] = sent
    cls = np.ceil(np.log2(widths.astype(np.float64))).astype(np.int64)
    for c in np.unique(cls).tolist():
        members = np.flatnonzero(cls == c)
        padw = 1 << int(c)
        rs = rstarts[members]
        wid = widths[members]
        pos = np.arange(padw, dtype=np.int64)
        # Pads point at the sentinel slot: its key is strictly above
        # every real key (even ``+inf``), so the unstable sort keeps
        # pads glued to the row ends and one gather serves both the
        # keys and the original (= arrival) positions.
        gidx = np.where(
            pos[None, :] < wid[:, None], rs[:, None] + pos[None, :], n
        )
        o = np.argsort(wb[gidx], axis=1)  # unstable introsort on int64
        Gs = np.take_along_axis(gidx, o, axis=1)
        Kws = wb[Gs]
        # Tie repair: the unstable sort scrambles runs of equal ``w``;
        # re-order each run by ``(y, arrival)``.  Runs are rare — pads
        # never join them (sentinel keys are excluded).
        dup = (Kws[:, 1:] == Kws[:, :-1]) & (Kws[:, 1:] != sent)
        if dup.any():
            in_run = np.zeros((len(members), padw), dtype=bool)
            in_run[:, 1:] = dup
            in_run[:, :-1] |= dup
            rr, cc = np.nonzero(in_run)
            conn = np.zeros(len(rr), dtype=bool)
            if len(rr) > 1:
                conn[1:] = (
                    (rr[1:] == rr[:-1])
                    & (cc[1:] == cc[:-1] + 1)
                    & dup[rr[1:], cc[1:] - 1]
                )
            rid = np.cumsum(~conn)
            gv = Gs[rr, cc]
            srt = np.lexsort((gv, yb[gv], rid))
            Gs[rr, cc] = gv[srt]
        Kys = yb[Gs]
        valid = Gs != n
        cm = np.minimum.accumulate(Kys, axis=1)
        excl = np.empty_like(cm)
        excl[:, 0] = sent
        excl[:, 1:] = cm[:, :-1]
        kill = (excl <= Kys) & valid
        drop[Gs[kill]] = True
    return drop


def _peel_drop(
    w: np.ndarray, s: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Exact three-column per-segment Pareto drop mask.

    Each segment is lexsorted by ``(w, s, y)``; the sort is stable, so
    full value ties keep the incoming (arrival) order.  A candidate can
    then only be killed — dominated-or-equalled from an earlier
    position, or strictly dominated — by one that sorts before it, and
    the kill relation is transitive, so a candidate a dropped one kills
    is killed by a survivor too.  Each round therefore keeps the first
    undecided candidate of every segment and drops every later one of
    its segment whose ``(s, y)`` it dominates-or-equals (its ``w`` is
    ``<=`` by sort order).  That is ``pareto_insert``'s rule over a full
    fold in arrival order, and the loop runs as many rounds as the
    widest final frontier has entries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((y, s, w, seg))
    sg, ss, ys = seg[order], s[order], y[order]
    drop = np.zeros(len(w), dtype=bool)
    while len(order):
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(sg[1:], sg[:-1], out=head[1:])
        lead = np.flatnonzero(head)
        run = np.diff(lead, append=len(order))
        dom = (np.repeat(ss[lead], run) <= ss) & (np.repeat(ys[lead], run) <= ys)
        drop[order[dom & ~head]] = True
        keep = ~(dom | head)
        order, sg, ss, ys = order[keep], sg[keep], ss[keep], ys[keep]
    return drop


def _slab_ids(
    ctx, D: int, r_values, fixed_r: int | None, r_max: int | None = None
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """One cost slab per distinct ``(r, window factor)``.

    A stage of ``r`` replicas starting at group-local device ``pd``
    runs at the bottleneck factor ``ctx.window_scale(pd, r)`` (1.0 on a
    homogeneous group); pinned stages start only at multiples of
    ``fixed_r``.  Returns ``SID``, the ``(D + 1, r_max + 1)`` table
    mapping ``(pd, r)`` to its slab (``r_max`` defaults to the largest
    of ``r_values``), so the value gathers stay single fancy-index
    expressions, and each slab's ``(r, factor)`` in id order.  Windows
    of no listed ``r`` map to ``len(slabs)``, one past the last slab.
    """
    step = 1 if fixed_r is None else fixed_r
    if r_max is None:
        r_max = max(r_values, default=0)
    SID = np.full((D + 1, r_max + 1), -1, dtype=np.int64)
    slab_id: dict[tuple[int, float], int] = {}
    for r in r_values:
        for pd in range(0, D - r + 1, step):
            key = (r, ctx.window_scale(pd, r))
            SID[pd, r] = slab_id.setdefault(key, len(slab_id))
    SID[SID < 0] = len(slab_id)
    return SID, list(slab_id)


def _expand_batches(
    P_b: np.ndarray, ecounts: np.ndarray, tb_starts: np.ndarray, kb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One candidate per (kept batch, parent entry), in arrival order.

    Kept batch ``b`` (``kb`` lists them in ascending order) expands
    every entry of parent state ``P_b[b]``'s frontier, in list order
    (``ecounts`` entries per parent state, laid out state after state).
    Batches come grouped by target state from ``tb_starts`` on, so each
    target's stream is one contiguous segment.  Returns ``(bidx, pil,
    eidx, ct_counts)``: each candidate's batch, parent-list position and
    flat parent-entry index, and each target's stream length.
    """
    P_k = P_b[kb]
    counts_e = ecounts[P_k]
    bidx = np.repeat(kb, counts_e)
    pil = _ragged_arange(counts_e)
    eidx = np.repeat((np.cumsum(ecounts) - ecounts)[P_k], counts_e) + pil
    ends = np.zeros(len(kb) + 1, dtype=np.int64)
    np.cumsum(counts_e, out=ends[1:])
    cuts = np.searchsorted(kb, np.append(tb_starts, len(P_b)))
    return bidx, pil, eidx, np.diff(ends[cuts])


def _frontier_dict(
    states: list[tuple], counts: np.ndarray, *cols: np.ndarray
) -> dict[tuple, list[tuple]]:
    """Each state's frontier list: the rows of ``cols`` as tuples, laid
    out state after state in ``states`` order, ``counts`` rows each."""
    rows = list(zip(*(c.tolist() for c in cols)))
    ends = np.cumsum(counts).tolist()
    return {
        state: rows[lo:hi]
        for state, lo, hi in zip(states, [0, *ends], ends)
    }


def _prefilter_batches(
    P_b: np.ndarray,
    WS: np.ndarray,
    YS: np.ndarray,
    EW: np.ndarray,
    EY: np.ndarray,
    ecounts: np.ndarray,
    t_of_b: np.ndarray,
    tb_starts: np.ndarray,
) -> np.ndarray:
    """Ascending indices of the two-coordinate batches that can hold a
    survivor.

    Batch ``b`` expands parent ``P_b[b]``'s frontier ``(EW, EY)``
    against one slice cost ``(WS[b], YS[b])``, so its candidates are
    ``max(entry, slice)`` per coordinate and its lower corner is
    ``(max(min w, WS), max(min y, YS))``.  A parent frontier is a 2-D
    Pareto set, so its min-``w`` entry holds its largest ``y`` and its
    min-``y`` entry its largest ``w``: the two candidates those entries
    yield are known without expanding the batch.  Per target, the least
    first-kind candidate in ``(w, y)`` order and the least second-kind
    one in ``(y, w)`` order are real candidates of its stream, and a
    batch goes when either strictly dominates its lower corner (``<=``
    in both coordinates, ``<`` in one).  Every candidate of such a batch
    is then strictly dominated, which ``pareto_insert``'s rule kills
    whatever the arrival order, and the kill relation is transitive, so
    the fold over the kept batches keeps exactly the full fold's
    survivors, in the same order.  A batch holding a survivor is never
    dropped, so every target keeps at least one.
    """
    estarts = np.cumsum(ecounts) - ecounts
    lo_w = np.maximum(np.minimum.reduceat(EW, estarts)[P_b], WS)
    lo_y = np.maximum(np.minimum.reduceat(EY, estarts)[P_b], YS)
    hi_y = np.maximum(np.maximum.reduceat(EY, estarts)[P_b], YS)
    hi_w = np.maximum(np.maximum.reduceat(EW, estarts)[P_b], WS)
    # First kind (lo_w, hi_y), least in (w, y) order; second kind
    # (hi_w, lo_y), least in (y, w) order.
    k1w = np.minimum.reduceat(lo_w, tb_starts)[t_of_b]
    k1y = np.minimum.reduceat(
        np.where(lo_w == k1w, hi_y, np.inf), tb_starts
    )[t_of_b]
    k2y = np.minimum.reduceat(lo_y, tb_starts)[t_of_b]
    k2w = np.minimum.reduceat(
        np.where(lo_y == k2y, hi_w, np.inf), tb_starts
    )[t_of_b]
    # The corner is (lo_w, lo_y): k1w <= lo_w and k2y <= lo_y hold by
    # construction, so each test needs only its other coordinate.
    dead = (k1y <= lo_y) & ((k1w < lo_w) | (k1y < lo_y))
    dead |= (k2w <= lo_w) & ((k2w < lo_w) | (k2y < lo_y))
    return np.flatnonzero(~dead)


def _fold_position(
    P_b: np.ndarray, tb_starts: np.ndarray, tb_counts: np.ndarray,
    ecounts: np.ndarray, entries: list, slices: list,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """One table position's fold: every target state's survivors, in
    arrival order.  Batch ``b`` (batches grouped by target) expands
    parent ``P_b[b]``'s entry columns ``entries`` (``ecounts`` entries
    per parent) against its slice costs ``slices[i][b]``, as
    ``max(entry, slice)`` per coordinate.  Two coordinates drop the
    batches that cannot hold a survivor (:func:`_prefilter_batches`)
    and fold the rest with :func:`_staircase_drop`; three fold every
    batch with :func:`_peel_drop`.  Returns the survivors' batches,
    parent-list positions and columns, and each target's count."""
    nt = len(tb_counts)
    t_of_b = np.repeat(np.arange(nt, dtype=np.int64), tb_counts)
    if len(entries) == 2:
        kb = _prefilter_batches(
            P_b, *slices, *entries, ecounts, t_of_b, tb_starts
        )
        drop_mask = _staircase_drop
    else:
        kb = np.arange(len(P_b), dtype=np.int64)
        drop_mask = _peel_drop
    bidx, pil, eidx, ct_counts = _expand_batches(P_b, ecounts, tb_starts, kb)
    cols = [np.maximum(e[eidx], v[bidx]) for e, v in zip(entries, slices)]
    kidx = np.flatnonzero(~drop_mask(*cols, ct_counts))
    kb = bidx[kidx]
    counts = np.bincount(t_of_b[kb], minlength=nt)
    return kb, pil[kidx], [col[kidx] for col in cols], counts


# -- single-backbone 1F1B ----------------------------------------------------


def het_table_array(
    ctx, L: int, S: int, D: int, fixed_r: int | None = None, plans=None
):
    """Array twin of the pure-Python 1F1B DP oracle
    (``tests/oracles/partition.py``) — same ``(history, tf_by_r)``,
    bit-identical entries and dict orders.

    ``fixed_r=None`` lets every stage pick its replica count within the
    device budget and the per-replica sample floor (Eqns. 7-9).  A
    ``fixed_r`` pins every stage to that count on ``D = S * fixed_r``
    devices — uniform replication (footnote 2) — so each parent state
    expands exactly one replica count and the device coordinate of
    stage ``s`` is always ``s * fixed_r``.  Callers reject
    ``micro_batch < fixed_r`` before pinning, so the pinned path skips
    the sample floor.

    The stages walk the lattice's plan (:func:`_het_plan`) from
    ``plans`` (an optional ``LruStore``), capped at ``int(micro_batch)``
    replicas: the cap decides the dict order.
    """
    sc = ctx.self_conditioning
    zb = ctx.zb_pricing
    r_max = fixed_r if fixed_r is not None else min(D - S + 1, int(ctx.micro_batch))
    r_values = (fixed_r,) if fixed_r is not None else range(1, r_max + 1)
    plan = _het_plan(S, L, D=D, r_max=r_max, fixed_r=fixed_r, plans=plans)
    costs_for = _LazyStageCosts(ctx)
    SID, slabs = _slab_ids(ctx, D, r_values, fixed_r)
    nd = L + 1
    shape = (len(slabs), nd, nd)
    ST0 = np.zeros(shape)
    SALT = np.zeros(shape)
    SGAP = np.zeros(shape)
    for sid, (r, w) in enumerate(slabs):
        ST0[sid], SALT[sid], SGAP[sid] = _cost_slabs(
            costs_for(r), L, sc=sc, zb=zb, scale=w, comp_scale=ctx.comp_scale
        )
    sid_of = _chain_sids(SID, S, fixed_r)
    # Default pricing reuses t0 for the second coordinate
    # (partition.py), so every entry's w_sc equals its w by induction
    # from the (0.0, 0.0, ...) root: dominance over the triple
    # degenerates to the two columns (w, y).
    values = [v.ravel() for v in ((ST0, SALT, SGAP) if sc or zb else (ST0, SGAP))]
    # A pinned plan is built at r = 1 on S devices (_chain_plan): its
    # window codes hold r = 1, and replica and device counts scale by
    # fixed_r.
    unit, nw = (1, r_max + 1) if fixed_r is None else (fixed_r, 2)

    history: list[dict[tuple, list[tuple]]] = [
        {(0, 0): [(0.0, 0.0, float("-inf"), -1, 0, -1)]}
    ]
    # The previous stage's frontiers as columns, state after state in
    # creation order (= dict order).
    cols = [np.zeros(1)] * (len(values) - 1) + [np.full(1, -np.inf)]
    ecounts = np.ones(1, dtype=np.int64)
    for s, (P_b, W_b, O_b, tb_starts, tb_counts, TL, TD) in enumerate(
        plan, start=1
    ):
        if not len(P_b):
            # Every later stage of the plan is empty too.
            history.append({})
            continue
        idx = sid_of[W_b] * (nd * nd) + O_b
        kb, pil, cols, ecounts = _fold_position(
            P_b, tb_starts, tb_counts, ecounts, cols,
            [slab[idx] for slab in values],
        )
        states = [TL, TD * unit]
        if s == S:
            states.append(W_b[tb_starts] % nw * unit)
        history.append(
            _frontier_dict(
                list(zip(*(col.tolist() for col in states))),
                ecounts,
                # (w, w_sc, y), w_sc = w on two columns
                cols[0], *cols[-2:], O_b[kb] // nd, W_b[kb] % nw * unit, pil,
            )
        )

    last_rs = dict.fromkeys(state[2] for state in history[S]) if sc else ()
    return history, {r: costs_for(r).feedback_ms() for r in last_rs}


# -- bidirectional CDM -------------------------------------------------------

#: names of a CDM plan stage's arrays (see :func:`_build_cdm_plan`)
_CDM_STAGE_KEYS = ("P", "W", "OD", "OU", "tb_starts", "tb_counts", "TA", "TB", "TD")


class _CutGrid(NamedTuple):
    """One chain's cuts as a CDM lattice walks them: ``L`` layers, the
    allowed cut points (down prefixes or up suffixes), the smallest
    slice the grid admits and the largest slice a stage can take."""

    L: int
    cuts: list[int]
    gap: int
    max_len: int


def _cut_grid(S: int, L: int, cut_step: int) -> _CutGrid:
    """The cut grid of an ``L``-layer chain in ``S`` stages."""
    from .partition_cdm import _cut_points, _min_gap

    cuts = _cut_points(L, cut_step)
    gap = _min_gap(cuts)
    return _CutGrid(L, cuts, gap, L - (S - 1) * gap)


def _pinned_grid(S: int) -> _CutGrid:
    """A chain pinned to one layer per position: ``S`` layers, every
    layer a cut, unit slices — its cut at position ``k`` is ``k``."""
    return _CutGrid(S, list(range(S + 1)), 1, 1)


def _build_cdm_plan(
    *,
    S: int,
    down: _CutGrid,
    up: _CutGrid,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    by_r: bool = False,
) -> list[dict]:
    """Geometry-only transition plan shared by table builds and floors.

    State sets, batch enumeration and target creation order of the CDM
    DP depend only on the lattice geometry — frontiers are never empty,
    so no value ever changes which states exist.  Per chain position the
    plan lists the (parent, a, r, b) transitions in the DP's loop order
    (parents in creation order, down cut ``a`` outer, replica count
    ``r`` middle, up cut ``b`` inner), grouped by target state
    ``(a, b, d)`` in first-arrival order; ``by_r`` keys the last
    position's targets ``(a, b, d, r)`` instead, as the 1F1B DP keys its
    final states.  Each stage holds

    * ``P``: each transition's parent index (the parents are the
      previous stage's targets, the root ``(0, 0, 0)`` at stage 1);
    * its flat slab offsets: the window code ``W = pd * (r_cap + 1) +
      r`` (a position's down and up stage share one device window
      ``[pd, pd + r)``), the down slice ``OD = pa * (ld + 1) + a`` and
      the up slice ``OU = (lu - b) * (lu + 1) + lu - pb``;
    * ``tb_starts`` / ``tb_counts``: each target's run of transitions;
    * ``TA`` / ``TB`` / ``TD``: the target states (a target's ``r`` is
      that of any of its transitions).

    A table build or a floor fold then only gathers values.  ``r_cap``
    is the plan's largest replica count, already clamped to
    ``D - S + 1``; a pinned plan's is ``fixed_r``, on ``D = S * fixed_r``
    devices, so no device count ever exceeds ``D``.  ``down`` and ``up``
    are the two chains' cut grids (:func:`_cut_grid`).

    Enumeration and grouping are linear in the transitions: divisions
    run per (parent, a, r) group and the up cuts expand with
    :func:`_ragged_arange`; a dense table over the
    ``(ld + 1)(lu + 1)(D + 1)`` target codes (times ``r_cap + 1`` at an
    ``r``-keyed position) takes each target's first
    arrival with ``np.minimum.at``, only the used codes are sorted into
    creation order, and one stable argsort of the targets' ranks groups
    the transitions — arrival order kept within each target (a radix
    sort while the ranks fit in 16 bits).
    ``tests.oracles.cdm_plan_reference`` is the ``np.unique`` grouping
    this replaced; the fuzz suite holds the two array for array.
    """
    ld, lu = down.L, up.L
    cuts_d_arr = np.asarray(down.cuts, dtype=np.int64)
    cuts_u_arr = np.asarray(up.cuts, dtype=np.int64)
    nd, nu, nw, ndev = ld + 1, lu + 1, r_cap + 1, D + 1
    ncodes = nd * nu * ndev
    first = np.empty(ncodes, dtype=np.int64)
    rank = np.empty_like(first)
    plan: list[dict] = []
    PA = PB = PD = np.zeros(1, dtype=np.int64)
    for k in range(1, S + 1):
        remaining = S - k
        room_d = ld - remaining * down.gap
        room_u = lu - remaining * up.gap
        if fixed_r is not None:
            nr = np.ones(len(PA), dtype=np.int64)
        else:
            nr = np.maximum(
                np.minimum(D - PD - remaining, r_cap), 0
            )
        if remaining:
            a_lo = np.searchsorted(cuts_d_arr, PA, side="right")
            a_hi = np.searchsorted(
                cuts_d_arr, np.minimum(room_d, PA + down.max_len), side="right"
            )
            b_lo = np.searchsorted(cuts_u_arr, PB, side="right")
            b_hi = np.searchsorted(
                cuts_u_arr, np.minimum(room_u, PB + up.max_len), side="right"
            )
            na = np.maximum(a_hi - a_lo, 0)
            nb = np.maximum(b_hi - b_lo, 0)
        else:
            a_lo = np.full(len(PA), np.searchsorted(cuts_d_arr, ld))
            b_lo = np.full(len(PB), np.searchsorted(cuts_u_arr, lu))
            na = np.ones(len(PA), dtype=np.int64)
            nb = np.ones(len(PB), dtype=np.int64)
        n_g = na * nr * (nb > 0)
        if not n_g.any():
            plan.append(
                {name: np.zeros(0, dtype=np.int64) for name in _CDM_STAGE_KEYS}
            )
            PA = PB = PD = np.zeros(0, dtype=np.int64)
            continue
        # One group per (parent, down cut, replica count).
        P_g = np.repeat(np.arange(len(PA), dtype=np.int64), n_g)
        local = _ragged_arange(n_g)
        nr_g = nr[P_g]
        ia = local // nr_g
        A_g = cuts_d_arr[a_lo[P_g] + ia]
        R_g = fixed_r if fixed_r is not None else 1 + (local - ia * nr_g)
        D_g = PD[P_g] + R_g
        W_g = PD[P_g] * nw + R_g
        # Each group expands its parent's up cuts, innermost.
        nb_g = nb[P_g]
        g_b = np.repeat(np.arange(len(P_g), dtype=np.int64), nb_g)
        B_b = cuts_u_arr[b_lo[P_g][g_b] + _ragged_arange(nb_g)]
        code = ((A_g * nu) * ndev + D_g)[g_b] + B_b * ndev
        keyed = by_r and not remaining
        if keyed:
            # Only the last position widens its code table, by the
            # replica count its window code holds.
            code = code * nw + (W_g % nw)[g_b]
            first = np.empty(ncodes * nw, dtype=np.int64)
            rank = np.empty_like(first)

        total_b = len(code)
        first.fill(total_b)
        np.minimum.at(first, code, np.arange(total_b, dtype=np.int64))
        used = np.flatnonzero(first < total_b)
        tcode = used[np.argsort(first[used])]
        nt = len(tcode)
        rank[tcode] = np.arange(nt, dtype=np.int64)
        t_rank = rank[code]
        if keyed:
            tcode = tcode // nw
        # Ranks in the narrowest unsigned type: numpy sorts 8- and
        # 16-bit keys stably with a linear radix sort.
        keys = t_rank.astype(np.min_scalar_type(nt - 1))
        perm = np.argsort(keys, kind="stable")
        tb_counts = np.bincount(t_rank, minlength=nt)
        g_p = g_b[perm]
        TA = tcode // (nu * ndev)
        TB = tcode // ndev % nu
        TD = tcode % ndev
        plan.append(
            {
                "P": P_g[g_p],
                "W": W_g[g_p],
                "OD": (PA[P_g] * nd + A_g)[g_p],
                "OU": (lu - B_b[perm]) * nu + (lu - PB[P_g])[g_p],
                "tb_starts": np.cumsum(tb_counts) - tb_counts,
                "tb_counts": tb_counts,
                "TA": TA, "TB": TB, "TD": TD,
            }
        )
        PA, PB, PD = TA, TB, TD
    return plan


def _cached(plans, key: tuple, build):
    """``plans[key]`` (``plans`` an optional ``LruStore``), built and
    stored on a miss."""
    value = plans.get(key) if plans is not None else None
    if value is None:
        value = build()
        if plans is not None:
            plans.put(key, value)
    return value


def _cdm_plan(
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    plans,
) -> tuple[list[dict], int]:
    """The geometry plan of one CDM lattice and its largest replica
    count, from ``plans`` (an optional ``LruStore``) when it holds one.
    Replica counts above ``D - S + 1`` are never feasible (every other
    position needs a device), so every larger ``r_cap`` shares one plan;
    a pinned plan's only count is ``fixed_r``."""
    r_max = fixed_r if fixed_r is not None else min(r_cap, D - S + 1)
    plan = _cached(
        plans,
        ("cdm", S, ld, lu, cut_step, D, r_max, fixed_r),
        lambda: _build_cdm_plan(
            S=S, down=_cut_grid(S, ld, cut_step), up=_cut_grid(S, lu, cut_step),
            D=D, r_cap=r_max, fixed_r=fixed_r,
        ),
    )
    return plan, r_max


def _chain_plan(
    S: int,
    grid: _CutGrid,
    *,
    D: int,
    r_max: int,
    fixed_r: int | None,
    up: bool = False,
    by_r: bool = False,
) -> list[tuple]:
    """One chain's own (cut, device) lattice as per-position ``(P, W,
    O, tb_starts, tb_counts, T, TD)``: parents, window codes, the
    chain's slice offsets, target runs, and the targets' cuts and
    devices.  It is the :func:`_build_cdm_plan` plan (``by_r`` keys its
    last position by replica count) whose partner chain is pinned to
    one layer per position (:func:`_pinned_grid`); ``up`` puts the
    chain on the up side, whose offsets (``OU``) index suffix slices,
    and otherwise its offsets (``OD``) index prefix slices.

    A pinned lattice's plan depends on its replica count ``r`` only
    through its window codes and target devices (``k·r`` at position
    ``k``), so it is built once at ``r = 1`` on ``S`` devices, where
    position ``k``'s window code is ``2(k - 1) + 1``;
    :func:`_chain_sids` maps that code to the slab of the window
    ``[(k - 1)·r, k·r)`` at fold time."""
    if fixed_r is not None:
        D, r_max, fixed_r = S, 1, 1
    pinned = _pinned_grid(S)
    plan = _build_cdm_plan(
        S=S, down=pinned if up else grid, up=grid if up else pinned,
        D=D, r_cap=r_max, fixed_r=fixed_r, by_r=by_r,
    )
    names = ("P", "W", "OU" if up else "OD", "tb_starts", "tb_counts",
             "TB" if up else "TA", "TD")
    return [tuple(st[name] for name in names) for st in plan]


def _chain_sids(SID: np.ndarray, S: int, fixed_r: int | None) -> np.ndarray:
    """Slab id of each window code of a :func:`_chain_plan` plan: the
    raveled ``(pd, r)`` table of a free plan, and for a pinned plan
    (built at ``r = 1``) code ``2(k - 1) + 1`` to the slab of position
    ``k``'s window ``[(k - 1)·r, k·r)``."""
    if fixed_r is None:
        return SID.ravel()
    return np.repeat(SID[np.arange(S) * fixed_r, fixed_r], 2)


def _cdm_chain_plans(
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_max: int,
    fixed_r: int | None,
    plans,
) -> tuple[list[tuple], list[tuple]]:
    """Each chain's own (cut, device) lattice of one CDM lattice
    (:func:`_chain_plan`): the down chain's, then the up chain's.

    :func:`_build_cdm_plan`'s down-cut range depends only on the parent's
    down cut, its up-cut range only on the up cut and its replica range
    only on the devices used, so the joint lattice is the product of
    the two cut lattices and the device lattice: its full paths are
    every triple of full paths of the three.  A chain's path sum reads
    only its own cuts and windows, so once the partner chain has a full
    path (the joint plan's last position is not empty), both lattices
    hold the same full-path sums: the chain's cut paths paired with the
    device paths, each added position by position.  Float addition is
    monotone, so each min-sum fold yields the least of those sums, and
    the two agree bit for bit.  That pairing is the joint plan with the
    partner chain pinned to one layer per position, on far fewer
    transitions; a pinned lattice's device lattice is one path, so its
    chain plans are its cut lattices, shared by every replica count.
    Both chains sit under one key in ``plans`` (an optional
    ``LruStore``)."""
    geometry = ("pinned",) if fixed_r is not None else (D, r_max)
    kwargs = dict(D=D, r_max=r_max, fixed_r=fixed_r)
    return _cached(
        plans,
        ("cdm-chains", S, ld, lu, cut_step, *geometry),
        lambda: (
            _chain_plan(S, _cut_grid(S, ld, cut_step), **kwargs),
            _chain_plan(S, _cut_grid(S, lu, cut_step), up=True, **kwargs),
        ),
    )


def cdm_table_array(
    ctx,
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    plans=None,
):
    """Array twin of the pure-Python CDM DP oracle
    (``tests/oracles/partition_cdm.py``) — same frontier list,
    bit-identical entries and dict orders.

    ``plans`` is an optional mapping-like store (``LruStore``) of
    geometry transition plans, shared across table builds and floors of
    one sweep (:func:`_cdm_plan`).  Chain position k hosts its down AND
    up stage on the same device window, so one ``(r, window factor)``
    slab id serves both chains' gathers, and each transition's values
    are one 1-D take per slab at its stored offsets.
    """
    plan, r_max = _cdm_plan(
        S, cut_step=cut_step, ld=ld, lu=lu, D=D, r_cap=r_cap,
        fixed_r=fixed_r, plans=plans,
    )
    costs_d_for = _LazyStageCosts(ctx.down, ctx.comm_scale)
    costs_u_for = _LazyStageCosts(ctx.up, ctx.comm_scale)
    # Position 1's parent is the root, whose device budget admits every
    # replica count up to r_max: a plan with any transition uses them all.
    if not len(plan[0]["P"]):
        r_values = ()
    elif fixed_r is not None:
        r_values = (fixed_r,)
    else:
        r_values = range(1, r_max + 1)
    SID, slabs = _slab_ids(ctx.down, D, r_values, fixed_r, r_max)
    comp_scale = ctx.down.comp_scale
    nd, nu, nw = ld + 1, lu + 1, r_max + 1
    STD = np.zeros((len(slabs), nd, nd))
    SGD = np.zeros((len(slabs), nd, nd))
    STU = np.zeros((len(slabs), nu, nu))
    SGU = np.zeros((len(slabs), nu, nu))
    for sid, (r, w) in enumerate(slabs):
        STD[sid], _, SGD[sid] = _cost_slabs(
            costs_d_for(r), ld, sc=False, zb=False,
            scale=w, comp_scale=comp_scale,
        )
        STU[sid], _, SGU[sid] = _cost_slabs(
            costs_u_for(r), lu, sc=False, zb=False,
            scale=w, comp_scale=comp_scale,
        )
    sid_of = SID.ravel()
    STD, SGD, STU, SGU = STD.ravel(), SGD.ravel(), STU.ravel(), SGU.ravel()

    frontiers: list[dict[tuple[int, int, int], list[tuple]]] = [
        {(0, 0, 0): [(0.0, float("-inf"), -1, -1, 0, -1)]}
    ]
    # The previous position's frontiers as columns, state after state
    # in creation order (= dict order).
    EW, EY = np.zeros(1), np.full(1, -np.inf)
    ecounts = np.ones(1, dtype=np.int64)
    for k in range(1, S + 1):
        st = plan[k - 1]
        P_b, W_b, OD_b, OU_b = st["P"], st["W"], st["OD"], st["OU"]
        if not len(P_b):
            # Every later position of the plan is empty too.
            frontiers.append({})
            continue

        K_b = sid_of[W_b]
        idx_d = K_b * (nd * nd) + OD_b
        idx_u = K_b * (nu * nu) + OU_b
        # Nothing truncates a frontier, so a target's fold keeps exactly
        # its stream's staircase survivors, in arrival order.
        kb, pil, (EW, EY), ecounts = _fold_position(
            P_b, st["tb_starts"], st["tb_counts"], ecounts, (EW, EY),
            (
                np.maximum(STD[idx_d], STU[idx_u]),
                np.maximum(SGD[idx_d], SGU[idx_u]),
            ),
        )
        # Backpointers decode from the survivors' offsets: the parent's
        # down cut, its up cut and the replica count.
        frontiers.append(
            _frontier_dict(
                list(zip(st["TA"].tolist(), st["TB"].tolist(), st["TD"].tolist())),
                ecounts,
                EW, EY, OD_b[kb] // nd, lu - OU_b[kb] % nu, W_b[kb] % nw, pil,
            )
        )
    return frontiers


def _floor_slabs(
    ctx,
    L: int,
    slabs,
    comm_scale: float,
    *,
    sc: bool = False,
    split: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One chain's floor slabs, one per ``(r, window factor)`` of
    ``slabs`` plus an all-``+inf`` one (the slab id :func:`_slab_ids`
    gives windows of no listed replica count): the ``[lo, hi]`` compute
    of a stage on one micro-batch (fwd + bwd at the local batch
    ``micro_batch / r``, divided by the window factor, then plus the
    forward again for the SC wave when ``sc``), its path term and, when
    ``split``, its head term (else None).

    The path term is the stage's compute (with the grad-input half B
    in place of the whole backward when ``split``), plus the sends of
    the stage's output unless it ends the chain (``hi = L``): its
    forward and backward transfer across the boundary, and the SC
    wave's forward when ``sc``, each scaled by ``comm_scale``.  With
    ``sc`` the chain's last stage instead feeds its output back once.
    Then the chain's stage 0 (``lo = 0``) adds its W when ``split``
    and its sync, in that order, as the planner prices a stage's sends
    and all-reduce.  The head term is the stage's forward and its
    ``comm_scale``-scaled forward send: what it adds to a later stage's
    ramp under split backward.  Only a chain's
    last stage ends at layer ``L`` and only its stage 0 starts at 0, so
    the folds need no position test.  Compute slabs and path columns
    come from the profile's memos
    (:meth:`~repro.profiling.records.ProfileDB.stage_compute_slab`,
    :meth:`~repro.profiling.records.ProfileDB.stage_send_column`,
    :meth:`~repro.profiling.records.ProfileDB.stage_sync_column`); the
    B and W slabs of ``split`` from its memoised prefix sums."""
    profile, comp = ctx.profile, ctx.component
    batches = [ctx.micro_batch / r for r, _ in slabs]
    compute = np.full((len(slabs) + 1, L + 1, L + 1), np.inf)
    compute[:-1] = [
        profile.stage_compute_slab(comp, b, w, sc)
        for b, (_, w) in zip(batches, slabs)
    ]
    base = compute
    head = None
    if split:
        # Per-slab prefix sums; the +inf slab's rows stay 0.
        F, B, Wp = np.zeros((3, len(slabs) + 1, L + 1))
        for i, b in enumerate(batches):
            F[i], B[i], Wp[i], _ = profile.stage_prefix_sums(comp, b)
        scale = np.array([w for _, w in slabs] + [1.0])[:, None, None]
        fwd = F[:, None, :] - F[:, :, None]
        bwd = B[:, None, :] - B[:, :, None]
        bwd_b = np.maximum(0.0, bwd - (Wp[:, None, :] - Wp[:, :, None]))
        base = (fwd + bwd_b) / scale
        head = fwd / scale
        if sc:
            base = base + head
        base[-1] = head[-1] = np.inf
    # Adding 0.0 leaves a compute entry as it is: the +inf slab sends
    # nothing, a chain's last stage only its feedback, and only stage 0
    # syncs.
    link = (3.0 if sc else 2.0) * comm_scale
    send = np.zeros((len(slabs) + 1, L + 1))
    send[:-1, :L] = [
        profile.stage_send_column(comp, b, ctx.p2p, link)[:L] for b in batches
    ]
    if sc:
        send[:-1, L] = [
            profile.stage_send_column(comp, b, ctx.p2p, comm_scale)[L]
            for b in batches
        ]
    sync = np.zeros_like(send)
    sync[:-1] = [
        profile.stage_sync_column(comp, b, ctx.allreduce_for(r))
        for b, (r, _) in zip(batches, slabs)
    ]
    path = base + send[:, None, :]
    if split:
        path[:, 0] += Wp / scale[:, 0]
        head[:-1, :, :L] += np.array([
            profile.stage_send_column(comp, b, ctx.p2p, comm_scale)[:L]
            for b in batches
        ])[:, None, :]
    path[:, 0] += sync
    return compute, path, head


def cdm_floor_array(
    ctx,
    S: int,
    *,
    cut_step: int,
    ld: int,
    lu: int,
    D: int,
    r_cap: int,
    fixed_r: int | None,
    plans=None,
) -> tuple[float, float, float]:
    """Terms ``(W*, CP_down*, CP_up*)`` of the bidirectional makespan
    floor, each minimised over every partition :func:`cdm_table_array`'s
    lattice holds (same cut grid and replica range):

    * ``W*`` — the smallest possible maximum over chain positions of
      the position's down + up stage compute (fwd + bwd at the local
      batch ``micro_batch / r``, divided by the window factor): one
      device's busy time per micro-batch pair;
    * ``CP_down*`` / ``CP_up*`` — the shortest path of one micro-batch
      through each chain: every stage's compute, the 2x-enlarged
      forward and backward transfer across each boundary, and the sync
      of the chain's stage 0, priced as the planner prices a stage's
      sends and all-reduce.

    Scalar folds, one value per lattice state and one
    ``np.minimum.reduceat`` per target segment: min-max for ``W`` over
    the joint lattice's geometry plan, which pairs both chains' cuts,
    and min-sum for each path over its own chain's (cut, device)
    lattice (:func:`_cdm_chain_plans`), whose full paths give exactly
    the joint lattice's sums.  Every value is one 1-D take per slab
    stack at the plan's stored offsets.  A free lattice folds over its
    uncapped plans (``r_cap = D - S + 1``), which every cap shares:
    transitions whose replica count exceeds ``r_cap`` read an
    all-``+inf`` slab, so they and every state only they reach drop out
    of the minima, which then run over exactly the capped lattice's
    paths.  A cap of at least 1 admits ``r = 1`` at every position, so
    the capped lattice has a full partition exactly when the uncapped
    one does.  Raises :class:`PartitionError` on a lattice without a
    full partition, as the table's selection does.
    """
    # The uncapped plan of a free lattice; a pinned plan has no cap.
    plan, r_max = _cdm_plan(
        S, cut_step=cut_step, ld=ld, lu=lu, D=D, r_cap=D - S + 1,
        fixed_r=fixed_r, plans=plans,
    )
    r_values = (fixed_r,) if fixed_r is not None else range(1, min(r_cap, r_max) + 1)
    if not len(plan[-1]["P"]) or not r_values:
        raise PartitionError(
            f"no feasible bidirectional partition into {S} stages on {D} devices"
        )
    SID, slabs = _slab_ids(ctx.down, D, r_values, fixed_r, r_max)
    # A boundary's forward and backward transfer are each enlarged on
    # the bidirectional chain; a stage's sync prices its own replica
    # count.
    down, path_d, _ = _floor_slabs(ctx.down, ld, slabs, ctx.comm_scale)
    up, path_u, _ = _floor_slabs(ctx.up, lu, slabs, ctx.comm_scale)
    chain_d, chain_u = _cdm_chain_plans(
        S, cut_step=cut_step, ld=ld, lu=lu, D=D, r_max=r_max,
        fixed_r=fixed_r, plans=plans,
    )
    chain_sids = _chain_sids(SID, S, fixed_r)
    (cp_down,), _ = _min_chain_fold(chain_d, chain_sids, [path_d])
    (cp_up,), _ = _min_chain_fold(chain_u, chain_sids, [path_u])
    return _min_max_fold(plan, SID.ravel(), down, up), cp_down, cp_up


def _het_plan(
    S: int, L: int, *, D: int, r_max: int, fixed_r: int | None, plans
) -> list[tuple]:
    """The 1F1B DP's lattice, from ``plans`` (an optional ``LruStore``)
    when it holds one: a CDM down chain whose partner is pinned
    (:func:`_chain_plan` on the unit cut grid), with the DP's cut and
    replica ranges, device budget and target order, its last targets
    keyed ``(l, d, r)`` so that the SC feedback term cannot be pruned
    away.  One entry per ``(S, L)`` serves every pinned replica count;
    a free lattice has one per ``(S, L, D, r_max)``."""
    geometry = ("pinned",) if fixed_r is not None else (D, r_max)
    return _cached(
        plans,
        ("1f1b-chain", S, L, *geometry),
        lambda: _chain_plan(
            S, _cut_grid(S, L, 1), D=D, r_max=r_max, fixed_r=fixed_r,
            by_r=True,
        ),
    )


def het_floor_array(
    ctx,
    L: int,
    S: int,
    D: int,
    *,
    r_cap: int,
    fixed_r: int | None,
    split_backward: bool = False,
    comm_scale: float = 1.0,
    plans=None,
) -> tuple[tuple[float, float], ...]:
    """Terms ``(V*, CP*)`` of the single-backbone makespan floor, each
    minimised over every partition :func:`het_table_array`'s lattice
    holds (same replica range, ``r_cap`` capping a free lattice's
    counts): one pair for the plain build and, under self-conditioning,
    a second for the self-conditioned one.  With ``M =
    ctx.num_micro_batches``:

    * ``V*`` — the least, over the lattice's paths, of the largest
      ``M·work_k + R(parent_k)`` over stages ``k``.  ``work`` is a
      stage's compute on one micro-batch: fwd + bwd at the local batch
      ``micro_batch / r``, divided by the window factor, plus the SC
      forward in the self-conditioned build.  ``R`` of a prefix state
      is the least sum, over the prefixes reaching it, of the plain
      build's path terms (compute, both sends, stage 0's sync), which
      are the head plus tail of a later stage's device term in
      :func:`~repro.schedule.onef1b.makespan_floor`; under
      ``split_backward``, whose tail is the stage's own sync, of the
      forwards and their sends.  Both builds share ``R`` (the SC
      forward costs what the forward does).  ``V*`` is at least
      ``M·W*``, ``W*`` the least busiest stage, and at most every
      lattice partition's closed-form device term;
    * ``CP*`` — the shortest path of one micro-batch, with the terms of
      :func:`~repro.schedule.onef1b.makespan_floor`'s stage-0 path:
      every stage's compute (its forward and B in place of the whole
      backward when ``split_backward``), the ``comm_scale``-scaled
      transfers across each boundary (forward and backward, and the SC
      wave's), the SC feedback after the last stage, and stage 0's W
      (when split) and sync.

    The folds walk the table's own plan (:func:`_het_plan`), uncapped
    like a free CDM floor's plans, so every cap shares it; transitions
    above ``r_cap`` read an all-``+inf`` slab.  A free table whose cap
    does not bind walks the same plan.  Raises :class:`PartitionError`
    on a lattice without a full partition, as the table's selection
    does.
    """
    r_max = fixed_r if fixed_r is not None else D - S + 1
    chain = _het_plan(S, L, D=D, r_max=r_max, fixed_r=fixed_r, plans=plans)
    r_values = (fixed_r,) if fixed_r is not None else range(1, min(r_cap, r_max) + 1)
    if not len(chain[-1][0]) or not r_values:
        raise PartitionError(
            f"no feasible partition of {L} layers into {S} stages on {D} devices"
        )
    SID, slabs = _slab_ids(ctx, D, r_values, fixed_r, r_max)
    builds = [
        _floor_slabs(ctx, L, slabs, comm_scale, sc=sc, split=split_backward)
        for sc in ((False, True) if ctx.self_conditioning else (False,))
    ]
    paths = [path for _, path, _ in builds]
    if split_backward:
        paths.append(builds[0][2])
    cps, vs = _min_chain_fold(
        chain, _chain_sids(SID, S, fixed_r), paths,
        busy=tuple(compute for compute, _, _ in builds),
        ramp=len(paths) - 1 if split_backward else 0,
        M=ctx.num_micro_batches,
    )
    return tuple(zip(vs, cps[: len(vs)]))


def _min_max_fold(
    plan: list[dict], sid_of: np.ndarray, down: np.ndarray, up: np.ndarray
) -> float:
    """``W*``: over the joint lattice's full paths, the least maximum
    over positions of the position's down + up compute (position k
    hosts down stage k-1 and up stage S-k on one window, whose slab id
    ``sid_of`` gives)."""
    nd2, nu2 = down[0].size, up[0].size
    down, up = down.ravel(), up.ravel()
    w = np.zeros(1)
    for st in plan:
        K = sid_of[st["W"]]
        values = down[K * nd2 + st["OD"]] + up[K * nu2 + st["OU"]]
        w = np.minimum.reduceat(np.maximum(w[st["P"]], values), st["tb_starts"])
    return float(w.min())


def _min_chain_fold(
    chain: list[tuple], sid_of: np.ndarray, paths: list[np.ndarray], *,
    busy: tuple[np.ndarray, ...] = (), ramp: int = 0, M: int = 1,
) -> tuple[list[float], list[float]]:
    """Over one chain lattice's full paths, the least sum of each slab
    stack of ``paths``, and for each slab stack of ``busy`` the least
    largest ``M·busy_k + R(parent_k)``, where ``R`` of a state is the
    least sum of ``paths[ramp]`` over the prefixes reaching it (0 at
    the root).  Every fold combines position by position from 0, and
    all share each position's gather index and parent gathers."""
    n2 = paths[0][0].size
    flats = [values.ravel() for values in paths]
    busy = [values.ravel() for values in busy]
    sums = [np.zeros(1)] * len(flats)
    peaks = [np.zeros(1)] * len(busy)
    for P, W, O, starts, *_ in chain:
        idx = sid_of[W] * n2 + O
        parents = [acc[P] for acc in sums]
        peaks = [
            np.minimum.reduceat(
                np.maximum(peak[P], M * flat[idx] + parents[ramp]), starts
            )
            for peak, flat in zip(peaks, busy)
        ]
        sums = [
            np.minimum.reduceat(parent + flat[idx], starts)
            for parent, flat in zip(parents, flats)
        ]
    return [float(acc.min()) for acc in sums], [float(acc.min()) for acc in peaks]
