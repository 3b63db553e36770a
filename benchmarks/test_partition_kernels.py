"""Array-kernel DP speedup gate (the PR's headline optimisation).

Times cold table builds of the two partition DPs — the 1F1B DP, free
(heterogeneous) and pinned to a uniform replica count (the ``chain``
case), and the pinned CDM bidirectional DP — under the array engine
and under its pure-Python oracle (``tests/oracles/``, swapped in
below the production wrappers) on a fig13c/d-flavoured lattice: the
CDM-LSUN down backbone on one NVSwitch node's cost constants, swept
across the group sizes the figure's cluster sweep visits (D up to 64
devices) at two stage counts.  The gate is on the
*aggregate* ratio (total reference seconds / total array seconds), so
the lattice's mass distribution is part of the contract: the
heterogeneous shapes dominate, exactly where the planner spends its
time on fig13c/d-class sweeps with ``heterogeneous_replication``.

The wall-clock gate is ``slow``: the CI fast suite (``-m "not slow"``)
runs its work-counter twin instead, which counts the oracles'
per-candidate Python fold (``pareto_insert``) on the same shapes; the
tier-1 command runs both.

Timing discipline: every build is cold (fresh :class:`PlannerCaches`),
and every (engine, shape) point takes the best of N runs — single runs
on a shared CI box can be 2-3x off their dispersion floor, and the
best-of floor is the quantity the ratio is stable in.

The engines' *outputs* are asserted bit-identical on one lattice shape
here; exhaustive differential coverage (all pricing modes, both
replication flavours, fuzzed instances) lives in
``tests/test_partition_kernels.py``.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter

import pytest

from repro.cluster.collectives import CommCosts
from repro.core import partition
from repro.core.caches import PlannerCaches
from repro.core.partition import PartitionContext, _het_frontiers
from repro.core.partition_cdm import CDMPartitionContext, _cdm_frontiers
from tests.oracles import dp_engine, reference_dp_kernels

#: required aggregate cold-build speedup of the array engine
MIN_AGGREGATE_SPEEDUP = 5.0

#: best-of runs per (engine, shape) point
BEST_OF = 4


def _interleaved_floors(ref_fn, arr_fn, n=BEST_OF):
    """Best-of-``n`` floors for both engines, runs interleaved.

    Interleaving matters more than the floor here: the box's effective
    speed drifts on a seconds scale (frequency scaling, suite
    neighbours), and timing all of one engine's runs before the other
    lets a drift epoch bill a single engine and swing the ratio 2x.
    Alternating ref/arr samples both engines across the same epochs, so
    drift cancels out of the ratio.  Collector hygiene on top: a full
    collection before the runs (earlier suite tests' garbage is not
    billed here) and automatic collection paused while timing."""
    best_ref = best_arr = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            ref_fn()
            best_ref = min(best_ref, time.perf_counter() - t0)
            t0 = time.perf_counter()
            arr_fn()
            best_arr = min(best_arr, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best_ref, best_arr


def _under(kern, build):
    """A thunk running ``build`` with DP engine ``kern``."""

    def run():
        with dp_engine(kern):
            build()

    return run


def _ctx(profile, component, M=16):
    return PartitionContext(
        profile=profile,
        component=component,
        batch_per_group=256.0,
        num_micro_batches=M,
        p2p=CommCosts(bandwidth=1e9, latency=0.01),
        allreduce=CommCosts(bandwidth=5e8, latency=0.05),
    )


def _lattice(lsun, lsun_profile):
    """The gate's six shapes as ``(name, cold build)`` pairs; run a
    build under an engine with :func:`_under`."""
    down, up = lsun.backbone_names
    L = lsun_profile.num_layers(down)
    ld, lu = lsun_profile.num_layers(down), lsun_profile.num_layers(up)
    ctx = _ctx(lsun_profile, down)
    cctx = CDMPartitionContext(
        down=_ctx(lsun_profile, down, M=8), up=_ctx(lsun_profile, up, M=8)
    )

    def het(S, D):
        return lambda: _het_frontiers(ctx, L, S, D, PlannerCaches())

    def chain():
        return _het_frontiers(ctx, L, 4, 8, PlannerCaches(), fixed_r=2)

    def cdm():
        return _cdm_frontiers(
            cctx, 4, 8, PlannerCaches(), fixed_r=2, cut_step=2, ld=ld, lu=lu
        )

    return [
        ("het S=4 D=16", het(4, 16)),
        ("het S=4 D=32", het(4, 32)),
        ("het S=6 D=32", het(6, 32)),
        ("het S=4 D=64", het(4, 64)),
        ("chain S=4", chain),
        ("cdm uniform", cdm),
    ]


@pytest.mark.slow
def test_array_kernels_aggregate_speedup(lsun, lsun_profile):
    lattice = [
        (name, _under("reference", build), _under("array", build))
        for name, build in _lattice(lsun, lsun_profile)
    ]

    total_ref = total_arr = 0.0
    rows = []
    for name, ref_fn, arr_fn in lattice:
        t_ref, t_arr = _interleaved_floors(ref_fn, arr_fn)
        total_ref += t_ref
        total_arr += t_arr
        rows.append((name, t_ref, t_arr))

    print()
    for name, t_ref, t_arr in rows:
        print(
            f"  {name:<14} ref {t_ref * 1e3:8.1f} ms   "
            f"arr {t_arr * 1e3:8.1f} ms   {t_ref / t_arr:5.2f}x"
        )
    aggregate = total_ref / total_arr
    print(
        f"  {'aggregate':<14} ref {total_ref * 1e3:8.1f} ms   "
        f"arr {total_arr * 1e3:8.1f} ms   {aggregate:5.2f}x"
    )
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"array kernels {aggregate:.2f}x >= {MIN_AGGREGATE_SPEEDUP}x "
        f"aggregate cold-build speedup expected "
        f"(ref {total_ref:.3f}s / arr {total_arr:.3f}s); per-shape: "
        + ", ".join(
            f"{n} {r / a:.2f}x" for n, r, a in rows
        )
    )


def test_array_kernels_never_fold_in_python(lsun, lsun_profile, monkeypatch):
    """Work-counter twin of the speed gate, for the fast suite.

    On the gate's six shapes the array engine settles every DP state
    in array kernels: it makes zero calls to
    :func:`repro.core.partition.pareto_insert`, the per-candidate
    Python fold of the oracles (2,341,944 calls on these six shapes).
    Every module binding of the function is counted, and the oracle's
    calls on the two cheap shapes prove the counter is live."""
    original = partition.pareto_insert
    calls = Counter()

    def counting(*args, **kwargs):
        calls["pareto_insert"] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("pareto_insert") is original:
            monkeypatch.setattr(module, "pareto_insert", counting)

    lattice = _lattice(lsun, lsun_profile)
    for name, build in lattice:
        _under("array", build)()
        assert calls["pareto_insert"] == 0, name
    for name, build in lattice[-2:]:
        _under("reference", build)()
        assert calls["pareto_insert"] > 0, name
        calls.clear()


def test_array_kernels_identical_tables_on_lattice_shape(lsun, lsun_profile):
    """The speed gate is only meaningful if both engines agree."""
    down = lsun.backbone_names[0]
    L = lsun_profile.num_layers(down)
    ctx = _ctx(lsun_profile, down)
    with reference_dp_kernels():
        h_ref, tf_ref = _het_frontiers(ctx, L, 4, 16, PlannerCaches())
    h_arr, tf_arr = _het_frontiers(ctx, L, 4, 16, PlannerCaches())
    assert tf_ref == tf_arr
    assert len(h_ref) == len(h_arr)
    for d_ref, d_arr in zip(h_ref, h_arr):
        assert list(d_ref.keys()) == list(d_arr.keys())
        for k in d_ref:
            assert d_ref[k] == d_arr[k]
