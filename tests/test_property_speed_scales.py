"""Hypothesis properties of the speed-scaled partition DPs.

Two invariants the heterogeneous threading must never break:

* **reduction**: an all-nominal ``speed_scales`` tuple — every factor
  exactly 1.0 — produces *bit-identical* plans to ``speed_scales=None``
  in both engines, for the 1F1B and the CDM DP.  Every stage bound
  always divides by its window factor (no identity gate), so this leans
  on IEEE-754 exactness of ``x / 1.0 == x``; a future "optimisation"
  that reorders the scaled arithmetic would surface here immediately.
* **exchange**: under equal per-layer costs, the strictly slower of
  two devices never ends up with strictly more layers than its faster
  twin.  (The ISSUE phrases this as "never in a strictly smaller
  stage", which inverts the provable direction: by the exchange
  argument, swapping a larger slow stage with a smaller fast one
  strictly reduces the pair's bottleneck, so the optimum loads the
  *faster* device at least as heavily.)

Plus the differential gate extended to scaled inputs: the array
engine and its oracle (``tests/oracles/``) agree bit-for-bit on
arbitrary mixed factors.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.collectives import CommCosts
from repro.core.caches import PlannerCaches
from repro.core.partition import PartitionContext, partition_backbone
from repro.core.partition_cdm import CDMPartitionContext, partition_cdm
from repro.profiling import ProfileDB

from tests.oracles import dp_engine

from .conftest import make_synthetic_db

FAST_P2P = CommCosts(bandwidth=6e8, latency=0.005)
FAST_AR = CommCosts(bandwidth=1e9, latency=0.1)
#: Per-replica-count sync slow enough that a later stage's gap, and so
#: its deflated compensation, can set ``Y``.
SLOW_AR = tuple(CommCosts(bandwidth=2e4 * r, latency=0.1) for r in range(1, 5))


def _ctx(
    db, scales, *, M=4, sc=False, pricing="default", comp="backbone",
    ar=FAST_AR,
):
    return PartitionContext(
        profile=db,
        component=comp,
        batch_per_group=64.0,
        num_micro_batches=M,
        p2p=FAST_P2P,
        allreduce=ar,
        self_conditioning=sc,
        speed_scales=scales,
        pricing=pricing,
    )


layer_times = st.lists(
    st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 80.0)),
    min_size=4,
    max_size=8,
)


@settings(max_examples=20, deadline=None)
@given(
    times=layer_times,
    S=st.integers(2, 3),
    kern=st.sampled_from(["array", "reference"]),
    het=st.booleans(),
    pricing=st.sampled_from(["default", "zerobubble"]),
    sc=st.booleans(),
    ar=st.sampled_from([FAST_AR, SLOW_AR]),
)
def test_all_nominal_scales_reduce_to_homogeneous(
    times, S, kern, het, pricing, sc, ar
):
    db = make_synthetic_db(backbone_times=tuple(times))
    D = 4
    if D % S != 0:
        het = True  # the homogeneous replication path needs S | D
    with dp_engine(kern):
        base = partition_backbone(
            _ctx(db, None, sc=sc, pricing=pricing, ar=ar), S, D,
            heterogeneous=het, caches=PlannerCaches(),
        )
        unit = partition_backbone(
            _ctx(db, (1.0,) * D, sc=sc, pricing=pricing, ar=ar), S, D,
            heterogeneous=het, caches=PlannerCaches(),
        )
    _assert_bit_identical(unit, base)


@settings(max_examples=20, deadline=None)
@given(
    down=layer_times,
    up=layer_times,
    S=st.integers(2, 3),
    kern=st.sampled_from(["array", "reference"]),
    het=st.booleans(),
    ar=st.sampled_from([FAST_AR, SLOW_AR]),
)
def test_all_nominal_scales_reduce_to_homogeneous_cdm(
    down, up, S, kern, het, ar
):
    db = ProfileDB.from_layer_times(
        {"down": list(down), "up": list(up)},
        batches=(1.0, 64.0),
        trainable={"down": True, "up": True},
    )
    D = 4
    if D % S != 0:
        het = True  # uniform replication needs S | D
    plans = []
    for scales in (None, (1.0,) * D):
        ctx = CDMPartitionContext(
            down=_ctx(db, scales, comp="down", ar=ar),
            up=_ctx(db, scales, comp="up", ar=ar),
        )
        with dp_engine(kern):
            plans.append(
                partition_cdm(
                    ctx, S, D, heterogeneous=het, caches=PlannerCaches()
                )
            )
    base, unit = plans
    _assert_bit_identical(unit, base)


def _assert_bit_identical(unit, base):
    assert unit == base
    assert unit.t_max_ms.hex() == base.t_max_ms.hex()
    assert unit.w_ms.hex() == base.w_ms.hex()
    assert unit.y_ms.hex() == base.y_ms.hex()


@settings(max_examples=20, deadline=None)
@given(
    times=layer_times,
    scales=st.tuples(*([st.floats(0.25, 1.0)] * 4)),
    S=st.integers(2, 3),
    het=st.booleans(),
    sc=st.booleans(),
)
def test_engines_agree_bit_identically_on_scaled_inputs(
    times, scales, S, het, sc
):
    db = make_synthetic_db(backbone_times=tuple(times))
    if 4 % S != 0:
        het = True  # the homogeneous replication path needs S | D
    plans = {}
    for kern in ("array", "reference"):
        with dp_engine(kern):
            plans[kern] = partition_backbone(
                _ctx(db, scales, sc=sc), S, 4,
                heterogeneous=het, caches=PlannerCaches(),
            )
    a, r = plans["array"], plans["reference"]
    assert a == r
    assert a.t_max_ms.hex() == r.t_max_ms.hex()


@settings(max_examples=30, deadline=None)
@given(
    slow=st.floats(0.2, 0.7),
    t=st.floats(5.0, 40.0),
    slow_first=st.booleans(),
    kern=st.sampled_from(["array", "reference"]),
)
def test_slower_device_never_takes_strictly_more_layers(
    slow, t, slow_first, kern
):
    """Exchange invariant on the two-device chain: uniform layer costs,
    one device strictly slower, the slow stage's layer count is <= the
    fast stage's in the returned optimum."""
    db = make_synthetic_db(backbone_times=((t, 2.0 * t),) * 8)
    scales = (slow, 1.0) if slow_first else (1.0, slow)
    with dp_engine(kern):
        plan = partition_backbone(
            _ctx(db, scales), 2, 2,
            heterogeneous=False, caches=PlannerCaches(),
        )
    layers = [stage.hi - stage.lo for stage in plan.down]
    slow_layers, fast_layers = (
        (layers[0], layers[1]) if slow_first else (layers[1], layers[0])
    )
    assert slow_layers <= fast_layers, (
        f"slow device (factor {slow:.3f}) got {slow_layers} layers vs "
        f"{fast_layers} on the nominal device"
    )
