"""Differential tests of the array DP kernels against their oracles.

The vectorized table builders of :mod:`repro.core.partition_kernels`
promise *bit-identical* outputs to the pure-Python folds they replaced
(``tests/oracles/``) — same max/+ compositions, same associativity,
same tie-breaking, exact float equality.  This suite fuzzes (L, S, D,
layer costs) with hypothesis and compares the full frontier tables, the
feedback times and the backtracked plans across all three pricing
modes (default, self-conditioning, zero-bubble) and both replication
flavours of each DP (pinned ``fixed_r`` and heterogeneous).  The CDM
oracle folds every candidate through ``pareto_insert`` and never
truncates a frontier, so the CDM tests hold the kernel to the exact
Pareto DP.  Comparisons are exact: every float is checked by
``.hex()``, entry order included.

The fold test holds the pinned 1F1B table to the uniform-replication
DP over prefixes (``chain_frontiers_reference``), the grouping test
holds the geometry plan, the 1F1B lattice's included, to the
``np.unique`` grouping it replaced (``cdm_plan_reference``), and the
sharing tests check that both flavours live side by side in one table
store.

The reference side runs the production wrappers under
:func:`~tests.oracles.reference_dp_kernels`, each side on its own fresh
:class:`PlannerCaches`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.collectives import CommCosts
from repro.core.caches import PlannerCaches
from repro.core.partition import (
    PartitionContext,
    _het_frontiers,
    backbone_makespan_floor,
    partition_backbone,
)
from repro.core.partition_cdm import (
    CDMPartitionContext,
    _cdm_frontiers,
    _cut_points,
    _min_gap,
    partition_cdm,
)
from repro.core import partition_kernels as pk
from repro.core.planner import DiffusionPipePlanner, PlannerOptions
from repro.errors import PartitionError
from repro.profiling import ProfileDB
from tests.oracles import (
    cdm_floor_reference,
    cdm_plan_reference,
    chain_frontiers_reference,
    het_floor_reference,
    reference_dp_kernels,
)

FAST = CommCosts(bandwidth=6e8, latency=0.005)

#: one layer's (fwd, bwd) times
layer_time = st.tuples(
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=100.0),
)
layer_times = st.lists(layer_time, min_size=4, max_size=10)

#: (self_conditioning, pricing) — the three table flavours of the
#: single-backbone DPs
PRICINGS = [(False, "default"), (True, "default"), (False, "zerobubble")]


def _ctx(times, sc=False, pricing="default", M=2, scales=None, db=None):
    if db is None:
        db = ProfileDB.from_layer_times(
            {"bb": list(times)}, batches=(1.0, 64.0), trainable={"bb": True}
        )
    return PartitionContext(
        profile=db, component="bb", batch_per_group=64.0,
        num_micro_batches=M, p2p=FAST, allreduce=FAST,
        self_conditioning=sc, pricing=pricing, speed_scales=scales,
    )


def _assert_cells_identical(ref_cell, arr_cell, where):
    assert len(ref_cell) == len(arr_cell), where
    for e_ref, e_arr in zip(ref_cell, arr_cell):
        assert len(e_ref) == len(e_arr), where
        for v_ref, v_arr in zip(e_ref, e_arr):
            if isinstance(v_ref, float):
                assert float(v_ref).hex() == float(v_arr).hex(), (
                    where, e_ref, e_arr,
                )
            else:
                assert v_ref == v_arr, (where, e_ref, e_arr)


def _assert_tf_identical(tf_ref, tf_arr):
    assert set(tf_ref) == set(tf_arr)
    for r in tf_ref:
        assert float(tf_ref[r]).hex() == float(tf_arr[r]).hex()


def _assert_dicts_identical(h_ref, h_arr):
    assert len(h_ref) == len(h_arr)
    for s, (d_ref, d_arr) in enumerate(zip(h_ref, h_arr)):
        # Key *order* matters: downstream selection iterates the dicts.
        assert list(d_ref.keys()) == list(d_arr.keys()), s
        for k in d_ref:
            _assert_cells_identical(d_ref[k], d_arr[k], (s, k))


# ---------------------------------------------------------------------------
# 1F1B DP pinned to a uniform replica count
# ---------------------------------------------------------------------------


@given(
    layer_times,
    st.integers(min_value=2, max_value=4),
    st.sampled_from(PRICINGS),
)
@settings(max_examples=40, deadline=None)
def test_chain_table_differential(times, S, mode):
    if S > len(times):
        return
    sc, pricing = mode
    ctx = _ctx(times, sc=sc, pricing=pricing)
    L = len(times)
    with reference_dp_kernels():
        h_ref, tf_ref = _het_frontiers(
            ctx, L, S, 2 * S, PlannerCaches(), fixed_r=2
        )
    h_arr, tf_arr = _het_frontiers(ctx, L, S, 2 * S, PlannerCaches(), fixed_r=2)
    _assert_tf_identical(tf_ref, tf_arr)
    _assert_dicts_identical(h_ref, h_arr)


@given(
    layer_times,
    st.integers(min_value=2, max_value=4),
    st.sampled_from(PRICINGS),
    st.sampled_from([1, 2, 3]),
    st.none() | st.tuples(*([st.floats(0.25, 1.0)] * 12)),
)
@settings(max_examples=60, deadline=None)
def test_pinned_table_folds_the_chain_dp(times, S, mode, r, scales):
    """Uniform replication is the 1F1B DP with every stage's replica
    count pinned: ``het_table_array(fixed_r=r)`` on ``S * r`` devices
    reproduces the DP over prefixes cell for cell.  Stage ``s``'s cell
    ``l`` is state ``(l, s * r)``; the last stage keeps only the
    full-chain state ``(L, S * r, r)``.  Entries match once the pinned
    table's replica slot is dropped."""
    if S > len(times):
        return
    sc, pricing = mode
    if scales is not None:
        scales = scales[: S * r]
    ctx = _ctx(times, sc=sc, pricing=pricing, scales=scales)
    L = len(times)
    h_ref, tf_ref = chain_frontiers_reference(ctx, r, L, S)
    h_pin, tf_by_r = pk.het_table_array(ctx, L, S, S * r, fixed_r=r)
    if sc:
        assert list(tf_by_r) == [r]
        assert float(tf_by_r[r]).hex() == float(tf_ref).hex()
    else:
        assert tf_by_r == {} and tf_ref == 0.0
    assert len(h_pin) == len(h_ref) == S + 1
    for s in range(1, S):
        expect = {(l, s * r): cell for l, cell in enumerate(h_ref[s]) if cell}
        assert list(h_pin[s]) == list(expect), s
        for state, cell in expect.items():
            assert all(e[4] == r for e in h_pin[s][state])
            got = [e[:4] + e[5:] for e in h_pin[s][state]]
            _assert_cells_identical(cell, got, (s, state))
    assert list(h_pin[S]) == [(L, S * r, r)]
    got = [e[:4] + e[5:] for e in h_pin[S][(L, S * r, r)]]
    _assert_cells_identical(h_ref[S][L], got, (S, L))


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_chain_backtracked_plan_differential(times, S):
    if S > len(times):
        return
    ctx = _ctx(times)
    with reference_dp_kernels():
        ref = partition_backbone(ctx, S, S, caches=PlannerCaches())
    arr = partition_backbone(ctx, S, S, caches=PlannerCaches())
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()
    assert float(ref.w_ms).hex() == float(arr.w_ms).hex()


# ---------------------------------------------------------------------------
# Heterogeneous 1F1B DP
# ---------------------------------------------------------------------------


@given(
    layer_times,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(PRICINGS),
    st.sampled_from([2, 32, 64, 128]),
    st.none() | st.lists(
        st.sampled_from([0.5, 0.8, 1.0, 1.5]), min_size=8, max_size=8
    ),
)
@settings(max_examples=60, deadline=None)
def test_het_table_differential(times, S, extra, mode, M, factors):
    """The free table on divisible and non-divisible device counts, on
    homogeneous and speed-scaled groups.  ``M`` = 32, 64 and 128 give
    micro-batches of 2, 1 and 0.5 samples, so the sample cap
    ``int(micro_batch)`` can bind below ``D - S + 1`` (down to 0, where
    the table is empty) and the table walks a capped plan."""
    if S > len(times):
        return
    sc, pricing = mode
    D = S + extra  # covers divisible and non-divisible device counts
    scales = None if factors is None else tuple(factors[:D])
    ctx = _ctx(times, sc=sc, pricing=pricing, M=M, scales=scales)
    L = len(times)
    with reference_dp_kernels():
        h_ref, tf_ref = _het_frontiers(ctx, L, S, D, PlannerCaches())
    h_arr, tf_arr = _het_frontiers(ctx, L, S, D, PlannerCaches())
    _assert_tf_identical(tf_ref, tf_arr)
    _assert_dicts_identical(h_ref, h_arr)


@given(layer_times, st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_het_backtracked_plan_differential(times, S):
    if S > len(times):
        return
    ctx = _ctx(times)
    D = S + 1
    with reference_dp_kernels():
        ref = partition_backbone(
            ctx, S, D, heterogeneous=True, caches=PlannerCaches()
        )
    arr = partition_backbone(
        ctx, S, D, heterogeneous=True, caches=PlannerCaches()
    )
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()


# ---------------------------------------------------------------------------
# Single-backbone makespan floor
# ---------------------------------------------------------------------------


@given(
    st.lists(layer_time, min_size=2, max_size=8),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1.0, 2.0]),
    st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.5]), min_size=8, max_size=8),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_het_floor_differential(
    times, extra, pinned, sc, split, comm_scale, factors, data
):
    """The vectorised 1F1B floor folds equal, bit for bit, the minima
    over every lattice partition enumerated one by one: both
    replication flavours, every replica cap ``1..D - S + 1`` (a free
    lattice folds over its uncapped plan and masks the counts above its
    cap), homogeneous and speed-scaled groups, with and without
    self-conditioning (whose second pair prices the SC wave and
    feedback) and split backward (B on the path, then stage 0's W; the
    ramp sums forwards and their sends).  Each ``V*`` is at least the
    steady phase ``M·W*`` it replaced."""
    L = len(times)
    S = data.draw(st.integers(1, min(4, L)), label="S")
    D = 2 * S if pinned else S + extra
    fixed_r = 2 if pinned else None
    r_cap = data.draw(st.integers(1, D - S + 1), label="r_cap")
    kwargs = dict(
        r_cap=r_cap, fixed_r=fixed_r, split_backward=split,
        comm_scale=comm_scale,
    )
    for scales in (None, tuple(factors[:D])):
        ctx = _ctx(times, sc=sc, M=4, scales=scales)
        ref = het_floor_reference(ctx, L, S, D, **kwargs)
        arr = pk.het_floor_array(
            ctx, L, S, D, plans=PlannerCaches().kernel_plans, **kwargs
        )
        assert len(arr) == (2 if sc else 1)
        assert [x.hex() for pair in arr for x in pair] == [
            x.hex() for terms in ref for x in terms[1:]
        ]
        assert all(v >= 4 * w for w, v, _ in ref)


@pytest.mark.parametrize(
    "L, S, D, het, M",
    [
        (3, 4, 5, True, 2),    # more stages than layers
        (3, 4, 8, False, 2),
        (5, 3, 2, True, 2),    # more stages than devices
        (5, 3, 4, False, 2),   # S does not divide D
        (5, 2, 8, False, 32),  # two samples per micro-batch, r = 4
        (5, 2, 4, True, 128),  # half a sample per micro-batch: cap 0
    ],
)
def test_het_floor_raises_without_a_partition(L, S, D, het, M):
    """The floor raises :class:`PartitionError` exactly where
    ``partition_backbone`` does; on the lattices that hold no
    partition, the brute force finds none and the kernel raises."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    ctx = _ctx(times[:L], M=M)
    with pytest.raises(PartitionError):
        partition_backbone(ctx, S, D, heterogeneous=het, caches=PlannerCaches())
    with pytest.raises(PartitionError):
        backbone_makespan_floor(
            ctx, S, D, heterogeneous=het, caches=PlannerCaches()
        )
    if het and (S > L or ctx.micro_batch < 1):
        kwargs = dict(r_cap=int(ctx.micro_batch), fixed_r=None)
        (terms,) = het_floor_reference(ctx, L, S, D, **kwargs)
        assert all(math.isinf(x) for x in terms)
        with pytest.raises(PartitionError):
            pk.het_floor_array(ctx, L, S, D, **kwargs)


def test_pinned_floors_share_one_chain_plan_across_replica_counts():
    """Counter gate of the shared pinned chain plans: a pinned lattice's
    chain plans depend on its replica count only through the window
    codes, so pinned floors at ``r = 1, 2, 3`` (windows of different
    speed factors) build one 1F1B chain entry, and one ``"cdm-chains"``
    entry beside the three CDM joint plans; every floor still equals
    the brute force at its own ``r``."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    factors = (0.5, 1.0, 0.8, 1.5, 1.0, 0.6)
    db = ProfileDB.from_layer_times(
        {"bb": times}, batches=(1.0, 64.0), trainable={"bb": True}
    )
    het_plans = PlannerCaches().kernel_plans
    cdm_plans = PlannerCaches().kernel_plans
    for r in (1, 2, 3):
        D = 2 * r
        ctx = _ctx(times, sc=True, scales=factors[:D], db=db)
        kwargs = dict(r_cap=r, fixed_r=r)
        got = pk.het_floor_array(ctx, 5, 2, D, plans=het_plans, **kwargs)
        want = het_floor_reference(ctx, 5, 2, D, **kwargs)
        assert [x.hex() for p in got for x in p] == [
            x.hex() for p in want for x in p[1:]
        ], r
        cctx = _cdm_ctx(times, times, batch=12.0, scales=factors[:D])
        kwargs = dict(cut_step=1, ld=5, lu=5, D=D, r_cap=r, fixed_r=r)
        got = pk.cdm_floor_array(cctx, 2, plans=cdm_plans, **kwargs)
        want = cdm_floor_reference(cctx, 2, **kwargs)
        assert [x.hex() for x in got] == [x.hex() for x in want], r
    assert (het_plans.misses, het_plans.hits) == (1, 2)
    assert (cdm_plans.misses, cdm_plans.hits) == (3 + 1, 2)


# ---------------------------------------------------------------------------
# CDM DP, both flavours
# ---------------------------------------------------------------------------


def _cdm_ctx(down_times, up_times, M=2, batch=64.0, scales=None):
    db = ProfileDB.from_layer_times(
        {"down": list(down_times), "up": list(up_times)},
        batches=(1.0, 64.0),
        trainable={"down": True, "up": True},
    )
    mk = lambda comp: PartitionContext(  # noqa: E731
        profile=db, component=comp, batch_per_group=batch,
        num_micro_batches=M, p2p=FAST, allreduce=FAST, speed_scales=scales,
    )
    return CDMPartitionContext(down=mk("down"), up=mk("up"))


def _chain_times(data, S: int, cut_step: int, label: str):
    """One backbone's (fwd, bwd) layer times, sized so that its cut grid
    holds ``S - 1`` to ``max(S + 1, 6 // cut_step)`` inner cuts at
    ``cut_step`` (so 2 to 7 layers at cut step 1): the layer count's
    remainder above the last multiple of the step is drawn too, so a
    chain may end in a slice shorter than the step."""
    most = max(S + 1, 6 // cut_step)
    inner = data.draw(st.integers(S - 1, most), label=f"{label} inner cuts")
    rest = data.draw(st.integers(0, cut_step - 1), label=f"{label} remainder")
    n = cut_step * inner + 1 + rest
    return data.draw(
        st.lists(layer_time, min_size=n, max_size=n), label=f"{label} times"
    )


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.5]), min_size=8, max_size=8),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_cdm_floor_differential(S, extra, cut_step, pinned, factors, data):
    """The vectorised floor folds equal, bit for bit, the minima over
    every lattice partition enumerated one by one, for both replication
    flavours, on homogeneous and speed-scaled groups, on up to four
    positions and cut steps up to 3.  The replica cap ranges over
    ``1..D - S + 1``, so a free lattice's fold over its uncapped plans
    is checked with the caps that mask transitions.  The two backbones
    draw their layer counts independently, so the path folds over each
    chain's own lattice meet chains whose cut grids differ (an odd
    layer count at cut step 2 ends in a one-layer slice the partner
    may not have) as well as equal ones."""
    dts = _chain_times(data, S, cut_step, "down")
    uts = _chain_times(data, S, cut_step, "up")
    ld, lu = len(dts), len(uts)
    D = 2 * S if pinned else S + extra
    fixed_r = 2 if pinned else None
    r_cap = data.draw(st.integers(1, D - S + 1), label="r_cap")
    kwargs = dict(
        cut_step=cut_step, ld=ld, lu=lu, D=D, r_cap=r_cap, fixed_r=fixed_r
    )
    for scales in (None, tuple(factors[:D])):
        ctx = _cdm_ctx(dts, uts, batch=12.0, scales=scales)
        ref = cdm_floor_reference(ctx, S, **kwargs)
        arr = pk.cdm_floor_array(
            ctx, S, plans=PlannerCaches().kernel_plans, **kwargs
        )
        assert [x.hex() for x in arr] == [x.hex() for x in ref]


@pytest.mark.parametrize(
    "S, cut_step, ld, lu, fixed_r",
    [
        (3, 3, 6, 9, None),
        (3, 3, 9, 6, None),
        (4, 2, 8, 5, None),
        (3, 3, 9, 6, 2),
        (4, 2, 5, 8, 2),
    ],
)
def test_cdm_floor_raises_without_a_partition(S, cut_step, ld, lu, fixed_r):
    """A lattice whose cut grid cannot hold ``S`` stages of one chain
    has no partition, free or pinned (``fixed_r = 2`` on ``D = 2S``):
    the brute force finds none, and the floor raises
    :class:`PartitionError` as the table's selection does."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0)] * 3
    ctx = _cdm_ctx(times[:ld], times[:lu], batch=12.0)
    D = S + 1 if fixed_r is None else S * fixed_r
    kwargs = dict(cut_step=cut_step, ld=ld, lu=lu, D=D, r_cap=2, fixed_r=fixed_r)
    assert math.isinf(cdm_floor_reference(ctx, S, **kwargs)[0])
    with pytest.raises(PartitionError):
        pk.cdm_floor_array(ctx, S, plans=PlannerCaches().kernel_plans, **kwargs)
    with pytest.raises(PartitionError):
        partition_cdm(
            ctx, S, D, cut_step=cut_step, heterogeneous=fixed_r is None,
            caches=PlannerCaches(),
        )


def test_cdm_floors_of_two_caps_share_one_plan():
    """Counter gate of the uncapped floor plans: every replica cap of a
    free lattice folds over the plans of cap ``D - S + 1`` (transitions
    above the cap read an all-``+inf`` slab): the joint plan of the
    ``W`` fold and one entry holding both chains' plans for the path
    folds.  Two floors at two caps build those two entries once and
    reuse them, and each still equals the brute-force minima at its own
    cap."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    ctx = _cdm_ctx(times, times, batch=12.0)
    kwargs = dict(cut_step=1, ld=5, lu=5, D=4, fixed_r=None)
    plans = PlannerCaches().kernel_plans
    for r_cap in (1, 3):
        got = pk.cdm_floor_array(ctx, 2, r_cap=r_cap, plans=plans, **kwargs)
        want = cdm_floor_reference(ctx, 2, r_cap=r_cap, **kwargs)
        assert [x.hex() for x in got] == [x.hex() for x in want], r_cap
    assert (plans.misses, plans.hits) == (2, 2)


def _plan_geometry(S, ld, lu, cut_step):
    """The cut grid and slice bounds :func:`pk._cdm_plan` derives."""
    cuts_d = _cut_points(ld, cut_step)
    cuts_u = _cut_points(lu, cut_step)
    gap_d = _min_gap(cuts_d)
    gap_u = _min_gap(sorted({lu - b for b in cuts_u}))
    return dict(
        S=S, ld=ld, lu=lu, cuts_d=cuts_d, cuts_u=cuts_u,
        gap_d=gap_d, gap_u=gap_u,
        max_len_d=ld - (S - 1) * gap_d, max_len_u=lu - (S - 1) * gap_u,
    )


@given(
    st.integers(1, 4),
    st.integers(2, 12),
    st.integers(2, 12),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_cdm_plan_matches_grouping_reference(S, ld, lu, cut_step, pinned, data):
    """The linear-time geometry plan equals the ``np.unique`` grouping
    it replaced (``tests.oracles.cdm_plan_reference``) array for array:
    each stage's parent indices, target segments and target states, and
    per transition the window, down-slice and up-slice offsets its
    replica count and cuts encode.  The parents of a stage are the
    previous stage's targets.  Each draw also checks the 1F1B DP's
    lattice on the same devices, the plan ``het_table_array`` and
    ``het_floor_array`` walk: the ``ld``-layer down chain at cut step 1,
    the up chain pinned to one layer per position, and the last
    position's targets keyed by replica count too."""
    if pinned:
        fixed_r = data.draw(st.integers(1, 8 // S), label="fixed_r")
        D, r_cap = S * fixed_r, fixed_r
    else:
        fixed_r = None
        D = data.draw(st.integers(S, 8), label="D")
        r_cap = data.draw(st.integers(1, D - S + 1), label="r_cap")
    plan, r_max = pk._cdm_plan(
        S, cut_step=cut_step, ld=ld, lu=lu, D=D, r_cap=r_cap,
        fixed_r=fixed_r, plans=None,
    )
    assert r_max == r_cap
    lattice = dict(D=D, r_cap=r_cap, fixed_r=fixed_r)
    one_f1b = pk._build_cdm_plan(
        S=S, down=pk._cut_grid(S, ld, 1), up=pk._pinned_grid(S),
        by_r=True, **lattice,
    )
    for plan, geometry, by_r in (
        (plan, _plan_geometry(S, ld, lu, cut_step), False),
        (one_f1b, _plan_geometry(S, ld, S, 1), True),
    ):
        ref = cdm_plan_reference(**geometry, **lattice, by_r=by_r)
        assert len(plan) == len(ref) == S
        lu = geometry["lu"]
        nd, nu, nw = ld + 1, lu + 1, r_cap + 1
        parents = [[0], [0], [0]]
        for k, (got, want) in enumerate(zip(plan, ref), start=1):
            for name in ("P", "tb_starts", "tb_counts", "TA", "TB", "TD"):
                assert got[name].tolist() == want[name].tolist(), (k, name)
            assert parents == [want[n].tolist() for n in ("PA", "PB", "PD")], k
            P = want["P"]
            offsets = {
                "W": want["PD"][P] * nw + want["R"],
                "OD": want["PA"][P] * nd + want["A"],
                "OU": (lu - want["B"]) * nu + lu - want["PB"][P],
            }
            for name, expect in offsets.items():
                assert np.array_equal(got[name], expect), (k, name)
            parents = [got[n].tolist() for n in ("TA", "TB", "TD")]


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.sampled_from([1, 2]),
)
@settings(max_examples=30, deadline=None)
def test_cdm_uniform_table_differential(dts, uts, S, cut_step):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    ld, lu = len(dts), len(uts)
    with reference_dp_kernels():
        f_ref = _cdm_frontiers(
            ctx, S, 2 * S, PlannerCaches(), fixed_r=2, cut_step=cut_step,
            ld=ld, lu=lu,
        )
    f_arr = _cdm_frontiers(
        ctx, S, 2 * S, PlannerCaches(), fixed_r=2, cut_step=cut_step,
        ld=ld, lu=lu,
    )
    _assert_dicts_identical(f_ref, f_arr)


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 2]),
)
@settings(max_examples=30, deadline=None)
def test_cdm_het_table_differential(dts, uts, S, extra, cut_step):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    ld, lu = len(dts), len(uts)
    D = S + extra
    with reference_dp_kernels():
        f_ref = _cdm_frontiers(
            ctx, S, D, PlannerCaches(), fixed_r=None, cut_step=cut_step,
            ld=ld, lu=lu,
        )
    f_arr = _cdm_frontiers(
        ctx, S, D, PlannerCaches(), fixed_r=None, cut_step=cut_step,
        ld=ld, lu=lu,
    )
    _assert_dicts_identical(f_ref, f_arr)


@given(
    layer_times,
    layer_times,
    st.integers(min_value=2, max_value=3),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_cdm_backtracked_plan_differential(dts, uts, S, het):
    if S > min(len(dts), len(uts)):
        return
    ctx = _cdm_ctx(dts, uts)
    D = S + 1 if het else S * 2
    with reference_dp_kernels():
        ref = partition_cdm(
            ctx, S, D, heterogeneous=het, caches=PlannerCaches()
        )
    arr = partition_cdm(ctx, S, D, heterogeneous=het, caches=PlannerCaches())
    assert ref == arr
    assert float(ref.t_max_ms).hex() == float(arr.t_max_ms).hex()


# ---------------------------------------------------------------------------
# Cached tables are immutable against caller-side mutation
# ---------------------------------------------------------------------------


def test_cached_chain_table_survives_caller_mutation():
    """The memo wrappers freeze frontier cells to tuples: a caller that
    takes a local copy of a frontier and mutates it cannot corrupt the
    cached table (the regression behind the docstring's read-only
    contract)."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    ctx = _ctx(times)
    caches = PlannerCaches()
    h1, tf1 = _het_frontiers(ctx, 5, 3, 6, caches, fixed_r=2)
    snapshot = [
        {k: [tuple(e) for e in cell] for k, cell in row.items()} for row in h1
    ]
    # Cells are frozen: in-place mutation is impossible.
    assert all(isinstance(cell, tuple) for row in h1 for cell in row.values())
    cell = h1[3][(5, 6, 2)]
    with pytest.raises((TypeError, AttributeError)):
        cell.append(("junk",))
    with pytest.raises(TypeError):
        cell[0] = ("junk",)
    # A caller working on a local copy mutates only the copy.
    local = [dict(row) for row in h1]
    local[3] = {k: () for k in local[3]}
    h2, tf2 = _het_frontiers(ctx, 5, 3, 6, caches, fixed_r=2)
    assert tf2 == tf1
    assert [
        {k: [tuple(e) for e in cell] for k, cell in row.items()} for row in h2
    ] == snapshot


def test_cached_het_and_cdm_tables_survive_caller_mutation():
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0)]
    ctx = _ctx(times)
    caches = PlannerCaches()
    h1, _ = _het_frontiers(ctx, 4, 2, 3, caches)
    key = next(iter(h1[1]))
    snapshot = [tuple(e) for e in h1[1][key]]
    assert isinstance(h1[1][key], tuple)
    local = dict(h1[1])
    local[key] = ()
    h2, _ = _het_frontiers(ctx, 4, 2, 3, caches)
    assert [tuple(e) for e in h2[1][key]] == snapshot

    cctx = _cdm_ctx(times, times)
    f1 = _cdm_frontiers(
        cctx, 2, 4, caches, fixed_r=2, cut_step=1, ld=4, lu=4
    )
    key = next(iter(f1[1]))
    snapshot = [tuple(e) for e in f1[1][key]]
    assert isinstance(f1[1][key], tuple)
    local = dict(f1[1])
    local[key] = ()
    f2 = _cdm_frontiers(
        cctx, 2, 4, caches, fixed_r=2, cut_step=1, ld=4, lu=4
    )
    assert [tuple(e) for e in f2[1][key]] == snapshot


# ---------------------------------------------------------------------------
# Both replication flavours share one table store per DP
# ---------------------------------------------------------------------------


def test_pinned_and_free_tables_share_one_store():
    """Uniform and heterogeneous partitions keep separate tables in one
    store (``caches.het``, ``caches.cdm``): in either order on one
    shared PlannerCaches, each returns the plan fresh caches give."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    ctx = _ctx(times)
    cctx = _cdm_ctx(times, times)

    def backbone(het, caches):
        return partition_backbone(ctx, 2, 4, heterogeneous=het, caches=caches)

    def cdm(het, caches):
        return partition_cdm(cctx, 2, 4, heterogeneous=het, caches=caches)

    for solve, store in ((backbone, "het"), (cdm, "cdm")):
        fresh = {het: solve(het, PlannerCaches()) for het in (False, True)}
        for order in ((False, True), (True, False)):
            caches = PlannerCaches()
            for het in order:
                assert solve(het, caches) == fresh[het], (store, order, het)
            # Two builds: a pinned key never aliases a free one.
            assert getattr(caches, store).misses == 2, (store, order)


def test_pinned_table_shared_across_one_stage_local_batch():
    """(M, r) combinations with one stage-local batch share one pinned
    table, and each plan carries its own caller's replica count."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    db = ProfileDB.from_layer_times(
        {"bb": times}, batches=(1.0, 64.0), trainable={"bb": True}
    )
    # Micro-batch 32 on r = 2 and micro-batch 16 on r = 1: both stages
    # see 16 samples.
    wide_ctx = _ctx(times, M=2, db=db)
    narrow_ctx = _ctx(times, M=4, db=db)
    caches = PlannerCaches()
    wide = partition_backbone(wide_ctx, 2, 4, caches=caches)
    assert (caches.het.misses, caches.het.hits) == (1, 0)
    narrow = partition_backbone(narrow_ctx, 2, 2, caches=caches)
    assert (caches.het.misses, caches.het.hits) == (1, 1)
    assert [a.replicas for a in wide.down] == [2, 2]
    assert [a.replicas for a in narrow.down] == [1, 1]
    assert wide == partition_backbone(wide_ctx, 2, 4, caches=PlannerCaches())
    assert narrow == partition_backbone(
        narrow_ctx, 2, 2, caches=PlannerCaches()
    )


# ---------------------------------------------------------------------------
# Cut-grid plan reuse across stage-local batches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixed_r", [2, None])
def test_cdm_plan_reused_across_adjacent_batches(fixed_r):
    """Within a sweep, adjacent stage-local batches share the CDM cut
    grid: the geometry/transition plan is built once and re-scaled with
    each batch's cost slabs instead of rebuilt (``caches.kernel_plans``
    is keyed on geometry only, never on batch sizes).  A free table's
    replica cap (the micro-batch: 32, then 16) enters the key clamped to
    the ``D - S + 1`` devices one position can take, so the two batches
    share a plan in both flavours."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0), (6.0, 3.0)]
    caches = PlannerCaches()
    results = [
        _cdm_frontiers(
            _cdm_ctx(times, times, batch=batch), 2, 4, caches,
            fixed_r=fixed_r, cut_step=1, ld=5, lu=5,
        )
        for batch in (64.0, 32.0)
    ]
    # One plan build (miss), one warm reuse: the second batch's table
    # came from re-scaled cost slabs over the shared plan arrays.
    assert (caches.kernel_plans.misses, caches.kernel_plans.hits) == (1, 1)
    # And the warm-plan table is still bit-identical to the oracle.
    with reference_dp_kernels():
        f_ref = _cdm_frontiers(
            _cdm_ctx(times, times, batch=32.0), 2, 4, PlannerCaches(),
            fixed_r=fixed_r, cut_step=1, ld=5, lu=5,
        )
    _assert_dicts_identical(f_ref, results[1])


# ---------------------------------------------------------------------------
# The oracle swap reaches the code under test
# ---------------------------------------------------------------------------


def test_reference_swap_reaches_every_table_build(
    uniform, uniform_profile, cluster8
):
    """Every differential test above compares whatever the wrappers
    build under :func:`reference_dp_kernels` with the array engine.  If
    a wrapper bound a builder at import time, the swap would stop taking
    effect and those tests would compare the array engine with itself.
    Count the oracle builds to rule that out."""
    times = [(3.0, 7.0), (2.0, 5.0), (4.0, 9.0), (1.0, 2.0)]
    ctx = _ctx(times)
    cctx = _cdm_ctx(times, times)
    with reference_dp_kernels() as calls:
        partition_backbone(ctx, 2, 2, caches=PlannerCaches())
        partition_backbone(
            ctx, 2, 3, heterogeneous=True, caches=PlannerCaches()
        )
        partition_cdm(cctx, 2, 4, caches=PlannerCaches())
        partition_cdm(cctx, 2, 3, heterogeneous=True, caches=PlannerCaches())
    assert calls == {
        ("het", "pinned"): 1,
        ("het", "free"): 1,
        ("cdm", "pinned"): 1,
        ("cdm", "free"): 1,
    }

    options = PlannerOptions(
        micro_batch_counts=(1, 2), group_sizes=(2,), check_memory=False
    )
    with reference_dp_kernels() as calls:
        DiffusionPipePlanner(
            uniform, cluster8, uniform_profile, options,
            caches=PlannerCaches(),
        ).plan(64)
    assert calls["het", "pinned"] >= 1

    # Leaving the context restores the array builders.
    with reference_dp_kernels() as calls:
        pass
    partition_backbone(ctx, 2, 2, caches=PlannerCaches())
    assert not calls
