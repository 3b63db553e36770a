"""Cluster topology tests."""

import numpy as np
import pytest

from repro.cluster import (
    EFA_400G,
    NVSWITCH,
    ClusterSpec,
    LinkSpec,
    p4de_cluster,
    single_node,
)
from repro.errors import ConfigurationError


def test_world_size_and_ranking():
    c = p4de_cluster(2)
    assert c.world_size == 16
    assert c.machine_of(0) == 0
    assert c.machine_of(7) == 0
    assert c.machine_of(8) == 1
    d = c.device(9)
    assert (d.machine, d.local_rank) == (1, 1)
    assert len(c.devices()) == 16


def test_same_machine():
    c = p4de_cluster(2)
    assert c.same_machine(0, 7)
    assert not c.same_machine(7, 8)


def test_link_selection():
    c = p4de_cluster(2)
    assert c.link(0, 1) is NVSWITCH
    assert c.link(0, 8) is EFA_400G
    # Self link has zero latency.
    self_link = c.link(3, 3)
    assert self_link.latency == 0.0


def test_p2p_time():
    c = single_node(8)
    t = c.p2p_time_ms(0, 1, 600e6)  # 600 MB over 600e6 B/ms NVSwitch
    assert t == pytest.approx(NVSWITCH.latency + 1.0)


def test_group_link_bottleneck():
    c = p4de_cluster(2)
    assert c.group_link(range(8)) is NVSWITCH
    assert c.group_link(range(16)) is EFA_400G
    assert c.spans_machines(range(16))
    assert not c.spans_machines(range(8))


def test_rank_validation():
    c = single_node(4)
    with pytest.raises(ConfigurationError):
        c.device(4)
    with pytest.raises(ConfigurationError):
        c.machine_of(-1)
    with pytest.raises(ConfigurationError):
        c.group_link([])


def test_link_validation():
    with pytest.raises(ConfigurationError):
        LinkSpec(bandwidth=0, latency=0)
    with pytest.raises(ConfigurationError):
        LinkSpec(bandwidth=1, latency=-1)
    with pytest.raises(ConfigurationError):
        NVSWITCH.transfer_time_ms(-5)


def test_cluster_validation():
    # Whole counts only: a fractional machine count once built a world
    # of 20.0 devices.
    for field in ("num_machines", "devices_per_machine"):
        for bad in (0, -1, 2.5, 2.0):
            with pytest.raises(ConfigurationError, match=field):
                ClusterSpec(**{field: bad})
    c = ClusterSpec(num_machines=np.int64(2), devices_per_machine=np.int32(4))
    assert c.world_size == 8


@pytest.mark.parametrize("field", ["num_machines", "devices_per_machine"])
def test_cluster_counts_reject_bool(field):
    """``True`` is an ``Integral`` equal to 1; ``num_machines=True``
    used to build a world of 8."""
    counts = {"num_machines": 1, "devices_per_machine": 8, field: True}
    with pytest.raises(ConfigurationError, match=field):
        ClusterSpec(**counts)


# -- heterogeneity overrides --------------------------------------------------


def test_speed_factor_overrides():
    c = single_node(4, speed_factors={1: 0.5, 3: 2.0})
    assert not c.homogeneous
    assert c.speed_factor(0) == 1.0
    assert c.speed_factor(1) == 0.5
    assert c.speed_factor(3) == 2.0
    assert c.group_speed_factor([0, 1]) == 0.5
    assert c.group_speed_factor([0, 3]) == 1.0
    assert c.device(1).speed_factor == 0.5
    assert c.device(1).scaled_time_ms(10.0) == 20.0
    with pytest.raises(ConfigurationError):
        single_node(4, speed_factors={1: 0.0})
    with pytest.raises(ConfigurationError):
        single_node(4, speed_factors={7: 0.5})


def test_identity_overrides_canonicalise_away():
    """A no-op override map compares (and hashes) equal to homogeneous."""
    base = single_node(4)
    noop = single_node(4, speed_factors={2: 1.0})
    assert noop.homogeneous
    assert noop == base
    assert hash(noop) == hash(base)
    # Same for a device_specs entry repeating the base spec and a link
    # override repeating the default link.
    from repro.cluster import a100_80gb

    assert ClusterSpec(
        num_machines=1, devices_per_machine=4, device_specs={0: a100_80gb()}
    ) == ClusterSpec(num_machines=1, devices_per_machine=4)
    assert ClusterSpec(
        num_machines=2, link_overrides={(0, 1): EFA_400G}
    ) == ClusterSpec(num_machines=2)
    # A real override is a different cluster.
    assert single_node(4, speed_factors={2: 0.5}) != base
    assert hash(single_node(4, speed_factors={2: 0.5})) != hash(base)


def test_speed_factor_map_order_is_canonical():
    a = single_node(4, speed_factors={1: 0.5, 3: 0.75})
    b = single_node(4, speed_factors={3: 0.75, 1: 0.5})
    assert a == b
    assert hash(a) == hash(b)


def test_device_spec_overrides():
    from repro.cluster import v100_32gb

    old = v100_32gb()
    c = single_node(4, device_spec=None)
    het = ClusterSpec(
        num_machines=1, devices_per_machine=4, device_specs={2: old}
    )
    assert het.device_spec_of(0) == c.device_spec
    assert het.device_spec_of(2) == old
    assert het.device(2).spec.name == "V100-32GB"
    assert het.min_memory_bytes() == old.memory_bytes
    assert c.min_memory_bytes() == c.device_spec.memory_bytes


def test_link_overrides():
    slow = LinkSpec(bandwidth=EFA_400G.bandwidth / 4, latency=0.1)
    c = ClusterSpec(num_machines=3, link_overrides={(1, 2): slow})
    assert not c.homogeneous
    # The overridden pair, queried in either order.
    assert c.machine_pair_link(1, 2) is slow
    assert c.machine_pair_link(2, 1) is slow
    assert c.link(8, 16) is slow
    assert c.link(16, 8) is slow
    # Untouched pairs keep their defaults.
    assert c.link(0, 8) is EFA_400G
    assert c.link(0, 1) is NVSWITCH
    # Group bottleneck picks the narrowest pairwise link.
    assert c.group_link(range(24)) is slow
    assert c.group_link(range(16)) is EFA_400G
    assert c.group_link(range(8)) is NVSWITCH
    with pytest.raises(ConfigurationError):
        ClusterSpec(num_machines=2, link_overrides={(0, 3): slow})


def test_intra_link_override_single_machine():
    slow_intra = LinkSpec(bandwidth=NVSWITCH.bandwidth / 10, latency=0.01)
    c = ClusterSpec(num_machines=2, link_overrides={(1, 1): slow_intra})
    assert c.link(8, 9) is slow_intra
    assert c.link(0, 1) is NVSWITCH
    assert c.group_link(range(8, 16)) is slow_intra
    # Self links take the local machine's (possibly overridden) intra
    # bandwidth at zero latency.
    assert c.link(8, 8).bandwidth == slow_intra.bandwidth
    assert c.link(8, 8).latency == 0.0


def test_homogeneous_fast_path_identity():
    """Without overrides the link accessors return the exact same objects
    as before the heterogeneity fields existed."""
    c = p4de_cluster(2)
    assert c.homogeneous
    assert c.link(0, 1) is NVSWITCH
    assert c.link(0, 8) is EFA_400G
    assert c.group_link(range(8)) is NVSWITCH
    assert c.group_link(range(16)) is EFA_400G


def test_cached_hash_stays_out_of_equality_repr_fields_and_pickles():
    """The hash is computed once per instance and equals the dataclass
    hash of the fields; a pickled-and-loaded cluster equals the
    original, hashes like it, and carries no cached hash in its state
    (a :class:`DeviceSpec` name hashes differently under another
    ``PYTHONHASHSEED``)."""
    import dataclasses
    import pickle

    c = p4de_cluster(2, speed_factors={1: 0.5})
    names = [f.name for f in dataclasses.fields(ClusterSpec)]
    assert hash(c) == hash(tuple(getattr(c, name) for name in names))
    assert "_hash" in vars(c)
    assert "_hash" not in names and "_hash" not in repr(c)
    assert "_hash" not in c.__getstate__()
    loaded = pickle.loads(pickle.dumps(c))
    assert "_hash" not in vars(loaded)
    assert loaded == c and hash(loaded) == hash(c)
    assert loaded == p4de_cluster(2, speed_factors={1: 0.5})
    assert dataclasses.replace(c, num_machines=3) != c
