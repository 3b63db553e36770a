"""Bidirectional CDM partitioner tests (§4.2)."""

import pytest

from repro.cluster import CommCosts
from repro.core import (
    CDMPartitionContext,
    PartitionContext,
    group_backbones,
    partition_cdm,
)
from repro.errors import ConfigurationError, PartitionError
from repro.profiling import ProfileDB

FAST_P2P = CommCosts(bandwidth=6e8, latency=0.005)
FAST_AR = CommCosts(bandwidth=1e9, latency=0.1)


def _db(down_times, up_times):
    return ProfileDB.from_layer_times(
        {"down": list(down_times), "up": list(up_times)},
        batches=(1.0, 64.0),
        trainable={"down": True, "up": True},
    )


def _cdm_ctx(db, M=2, batch=64.0):
    mk = lambda comp: PartitionContext(
        profile=db, component=comp, batch_per_group=batch,
        num_micro_batches=M, p2p=FAST_P2P, allreduce=FAST_AR,
    )
    return CDMPartitionContext(down=mk("down"), up=mk("up"))


def test_uniform_cdm_splits_evenly():
    db = _db([(10, 20)] * 6, [(10, 20)] * 6)
    plan = partition_cdm(_cdm_ctx(db), 2, 2)
    assert plan.is_bidirectional
    assert [st.num_layers for st in plan.down] == [3, 3]
    assert [st.num_layers for st in plan.up] == [3, 3]
    # Both chains contiguous and complete.
    for chain in (plan.down, plan.up):
        assert chain[0].lo == 0 and chain[-1].hi == 6
        for a, b in zip(chain, chain[1:]):
            assert a.hi == b.lo


def test_unbalanced_backbones_share_devices():
    """A heavy down backbone and light up backbone: the pairing should
    put less of the heavy chain where the light chain is thick."""
    db = _db([(30, 60)] * 6, [(5, 10)] * 6)
    plan = partition_cdm(_cdm_ctx(db), 2, 2)
    # W bound should be close to balanced-down: T(down)/2.
    down_total = 6 * 90.0 * (32 / 64)  # fwd+bwd at micro-batch 32
    assert plan.w_ms <= down_total / 2 * 1.35


def test_objective_formula():
    db = _db([(10, 20)] * 4, [(10, 20)] * 4)
    ctx = _cdm_ctx(db, M=3)
    plan = partition_cdm(ctx, 2, 2)
    coeff = ctx.m_cdm + 2 * 2 - 2
    assert plan.t_max_ms == pytest.approx(coeff * plan.w_ms + plan.y_ms)
    assert ctx.m_cdm == 6  # M_down + M_up


def test_cut_step_restricts_boundaries():
    db = _db([(10, 20)] * 8, [(10, 20)] * 8)
    plan = partition_cdm(_cdm_ctx(db), 2, 2, cut_step=2)
    for chain in (plan.down, plan.up):
        for st in chain[:-1]:
            assert st.hi % 2 == 0
    # Exact and coarse agree on a uniform chain.
    exact = partition_cdm(_cdm_ctx(db), 2, 2, cut_step=1)
    assert plan.t_max_ms == pytest.approx(exact.t_max_ms)


def test_infeasible_cdm():
    db = _db([(10, 20)] * 3, [(10, 20)] * 3)
    with pytest.raises(PartitionError):
        partition_cdm(_cdm_ctx(db), 4, 4)   # more stages than layers
    with pytest.raises(PartitionError, match="heterogeneous=True"):
        partition_cdm(_cdm_ctx(db), 3, 4)   # 3 !| 4
    with pytest.raises(PartitionError):
        partition_cdm(_cdm_ctx(db), 3, 2)   # more stages than devices
    for cut_step in (0, 1.5):
        with pytest.raises(ConfigurationError, match="cut_step"):
            partition_cdm(_cdm_ctx(db), 2, 2, cut_step=cut_step)


def test_micro_batch_floor_uniform():
    """Uniform r = D/S needs at least r samples per micro-batch in both
    directions (the same floor the heterogeneous DP enforces via its
    r_cap), keeping het-CDM <= uniform-CDM exact."""
    db = _db([(10, 20)] * 6, [(10, 20)] * 6)
    # batch 4, M=2 -> micro-batch 2 < r = 3.
    with pytest.raises(PartitionError, match="samples per"):
        partition_cdm(_cdm_ctx(db, M=2, batch=4.0), 2, 6)
    # The heterogeneous DP plans the same combo with smaller replica
    # counts per position.
    plan = partition_cdm(_cdm_ctx(db, M=2, batch=4.0), 2, 6, heterogeneous=True)
    assert all(st.replicas <= 2 for st in plan.down)


def test_micro_batch_count_mismatch_rejected():
    db = _db([(10, 20)] * 4, [(10, 20)] * 4)
    mk = lambda comp, M: PartitionContext(
        profile=db, component=comp, batch_per_group=64.0,
        num_micro_batches=M, p2p=FAST_P2P, allreduce=FAST_AR,
    )
    with pytest.raises(ConfigurationError, match="micro-batch"):
        CDMPartitionContext(down=mk("down", 2), up=mk("up", 3))


def _check_cdm_chains(plan, ld, lu, D):
    """Contiguity, coverage, device conservation and co-located replica
    agreement of a bidirectional plan."""
    S = plan.num_stages
    for chain, L in ((plan.down, ld), (plan.up, lu)):
        assert chain[0].lo == 0 and chain[-1].hi == L
        for x, y in zip(chain, chain[1:]):
            assert x.hi == y.lo
        assert all(st.replicas >= 1 for st in chain)
    assert sum(st.replicas for st in plan.down) <= D
    for i in range(S):
        assert plan.down[i].replicas == plan.up[S - 1 - i].replicas


def test_het_cdm_non_divisible():
    """4 stages on 6 devices: uniform replication is impossible, the
    heterogeneous DP returns a valid plan with per-position replicas."""
    db = _db([(10, 20)] * 8, [(10, 20)] * 8)
    ctx = _cdm_ctx(db)
    plan = partition_cdm(ctx, 4, 6, heterogeneous=True)
    assert plan.is_bidirectional
    _check_cdm_chains(plan, 8, 8, 6)
    # The objective must match Eqn. 12 with the chosen (W, Y).
    coeff = ctx.m_cdm + 2 * 4 - 2
    assert plan.t_max_ms == pytest.approx(coeff * plan.w_ms + plan.y_ms)


def test_het_cdm_not_worse_than_uniform_on_divisible():
    db = _db([(30, 60), (10, 20), (10, 20), (30, 60), (10, 20), (10, 20)],
             [(5, 10)] * 6)
    ctx = _cdm_ctx(db)
    for S, D in ((2, 2), (2, 4), (3, 3)):
        uni = partition_cdm(ctx, S, D)
        het = partition_cdm(ctx, S, D, heterogeneous=True)
        assert het.t_max_ms <= uni.t_max_ms + 1e-9 * max(1.0, uni.t_max_ms)


def test_het_cdm_memo_hit_is_bit_identical():
    db = _db([(12, 25)] * 6, [(8, 18)] * 6)
    ctx = _cdm_ctx(db)
    first = partition_cdm(ctx, 3, 4, heterogeneous=True)
    second = partition_cdm(ctx, 3, 4, heterogeneous=True)
    assert first == second
    # A different micro-batch count reuses the same DP table (the count
    # only scales the final selection) but may pick another entry; the
    # chains it returns must still be valid.
    other = partition_cdm(_cdm_ctx(db, M=4), 3, 4, heterogeneous=True)
    _check_cdm_chains(other, 6, 6, 4)


def test_het_cdm_respects_cut_step():
    db = _db([(10, 20)] * 8, [(10, 20)] * 8)
    plan = partition_cdm(_cdm_ctx(db), 3, 4, cut_step=2, heterogeneous=True)
    for chain in (plan.down, plan.up):
        for st in chain[:-1]:
            assert st.hi % 2 == 0 or st.hi == 8


def test_group_backbones_balances_load():
    db = ProfileDB.from_layer_times(
        {
            "a": [(10, 20)] * 4,   # 120 ms
            "b": [(20, 40)] * 4,   # 240 ms
            "c": [(12, 24)] * 4,   # 144 ms
        },
        batches=(1.0, 64.0),
        trainable={"a": True, "b": True, "c": True},
    )
    down, up = group_backbones(db, ["a", "b", "c"], 64.0)
    assert set(down + up) == {"a", "b", "c"}
    # The heaviest backbone sits alone in its group.
    assert ["b"] in (down, up)
    with pytest.raises(ConfigurationError):
        group_backbones(db, ["a"], 64.0)
