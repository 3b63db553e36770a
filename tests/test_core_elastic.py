"""Elastic events, session warm-reuse, and cluster-keyed cache hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import DeviceSpec, p4de_cluster, single_node
from repro.cluster.topology import ClusterSpec, LinkSpec
from repro.core import (
    DiffusionPipePlanner,
    ElasticEvent,
    ElasticSession,
    PlannerCaches,
    PlannerOptions,
)
from repro.core.elastic import apply_event
from repro.errors import ConfigurationError


def _options(**kw):
    base = dict(
        max_stages=4,
        micro_batch_counts=(1, 2, 4),
        group_sizes=(2, 4),
        check_memory=False,
    )
    base.update(kw)
    return PlannerOptions(**base)


# -- events -----------------------------------------------------------------


def test_event_validation():
    with pytest.raises(ConfigurationError, match="unknown elastic event"):
        ElasticEvent("reboot")
    with pytest.raises(ConfigurationError, match="at least one machine"):
        ElasticEvent("join", machines=0)
    # A fractional join once grew p4de_cluster(2) to 3.5 machines.
    for bad in (1.5, 1.0):
        with pytest.raises(ConfigurationError, match="integer"):
            ElasticEvent("join", machines=bad)
    grown = apply_event(p4de_cluster(2), ElasticEvent("join", machines=np.int64(1)))
    assert (grown.num_machines, grown.world_size) == (3, 24)
    with pytest.raises(ConfigurationError, match="only applies to joining"):
        ElasticEvent("leave", speed_factor=0.5)
    with pytest.raises(ConfigurationError, match="must be positive"):
        ElasticEvent("join", speed_factor=0.0)


def test_leave_drops_overrides_on_departed_ranks():
    cluster = ClusterSpec(
        num_machines=2,
        devices_per_machine=2,
        speed_factors={1: 0.5, 3: 0.25},
        device_specs={2: DeviceSpec(name="small", memory_bytes=1e9)},
        link_overrides={(0, 1): LinkSpec(bandwidth=1e6, latency=1.0)},
    )
    after = apply_event(cluster, ElasticEvent("leave"))
    assert after.num_machines == 1
    # Rank 1 survives with its factor; ranks 2/3 and the cross-machine
    # link left with their machine.
    assert after.speed_factors == ((1, 0.5),)
    assert after.device_specs == ()
    assert after.link_overrides == ()


def test_join_tags_new_ranks_with_speed_factor():
    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    after = apply_event(
        cluster, ElasticEvent("join", speed_factor=0.5)
    )
    assert after.num_machines == 2
    assert after.speed_factors == ((2, 0.5), (3, 0.5))
    # A nominal-speed join is a pure membership change.
    assert apply_event(cluster, ElasticEvent("join")).speed_factors == ()


def test_leave_join_roundtrip_restores_identity():
    cluster = ClusterSpec(num_machines=3, devices_per_machine=2)
    churned = apply_event(cluster, ElasticEvent("leave"))
    assert churned != cluster
    restored = apply_event(churned, ElasticEvent("join"))
    assert restored == cluster
    assert hash(restored) == hash(cluster)


def test_leave_cannot_empty_the_cluster():
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    with pytest.raises(ConfigurationError, match="cannot remove"):
        apply_event(cluster, ElasticEvent("leave", machines=2))


# -- session ----------------------------------------------------------------


def test_session_weak_scales_the_batch(uniform, uniform_profile):
    session = ElasticSession(
        uniform,
        ClusterSpec(num_machines=2, devices_per_machine=2),
        batch_per_device=16.0,
        profile=uniform_profile,
        options=_options(group_sizes=(2,)),
        caches=PlannerCaches(),
    )
    assert session.global_batch == 64.0
    session.apply(ElasticEvent("leave"))
    assert session.global_batch == 32.0
    assert session.events == [ElasticEvent("leave")]
    ev = session.replan()
    assert ev.plan.global_batch == 32.0
    # The per-group batch is world-independent under weak scaling.
    assert ev.plan.partition.batch_per_group == 32.0


def test_session_replan_tracks_membership(uniform, uniform_profile):
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    session = ElasticSession(
        uniform,
        cluster,
        batch_per_device=16.0,
        profile=uniform_profile,
        options=_options(group_sizes=(2,)),
        caches=PlannerCaches(),
    )
    before = session.replan()
    session.apply(ElasticEvent("leave"))
    session.replan()
    session.apply(ElasticEvent("join"))
    assert session.cluster == cluster
    after = session.replan()
    assert after.plan == before.plan


def test_session_rejoin_restores_the_cluster_object(uniform, uniform_profile):
    """A membership seen before comes back as the very ClusterSpec
    object the memos were keyed with, so warm hits match their keys by
    identity; a membership not seen before is a new object."""
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    session = ElasticSession(
        uniform,
        cluster,
        batch_per_device=16.0,
        profile=uniform_profile,
        options=_options(group_sizes=(2,)),
        caches=PlannerCaches(),
    )
    left = session.apply(ElasticEvent("leave"))
    assert session.apply(ElasticEvent("join")) is cluster
    assert session.apply(ElasticEvent("leave")) is left
    slow = session.apply(ElasticEvent("join", speed_factor=0.5))
    assert slow != cluster and slow is session.cluster


def test_session_rejects_nonpositive_batch(uniform, uniform_profile):
    with pytest.raises(ConfigurationError, match="batch_per_device"):
        ElasticSession(
            uniform,
            single_node(4),
            batch_per_device=0.0,
            profile=uniform_profile,
        )


def test_session_rejects_nonfinite_batch(uniform, uniform_profile):
    """``inf`` passed the old ``> 0`` check, and the first replan then
    raised OverflowError from the planner's divisibility test."""
    for batch in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="batch_per_device"):
            ElasticSession(
                uniform,
                single_node(4),
                batch_per_device=batch,
                profile=uniform_profile,
            )


# -- cluster-keyed cache hygiene (the aliasing regression) ------------------


def test_speed_override_never_aliases_warm_cache(uniform, uniform_profile):
    """Clusters differing only in a per-device speed override must not
    alias each other's warm planner entries, while a separately
    constructed but identical cluster still shares them."""
    caches = PlannerCaches()
    base = single_node(4)
    DiffusionPipePlanner(
        uniform, base, uniform_profile, _options(group_sizes=(4,)),
        caches=caches,
    ).plan(64)
    n_evals = len(caches.evals)
    n_partitions = len(caches.partition)
    assert n_evals > 0 and n_partitions > 0

    # Same topology, one slow device: every planner-level memo must
    # miss (new entries appear) and the plan must actually differ.
    slow = single_node(4, speed_factors={0: 0.5})
    assert slow != base
    slow_ev = DiffusionPipePlanner(
        uniform, slow, uniform_profile, _options(group_sizes=(4,)),
        caches=caches,
    ).plan(64)
    assert len(caches.partition) > n_partitions
    assert len(caches.evals) > n_evals

    # A fresh-but-identical homogeneous cluster adds nothing: the
    # canonicalised spec compares equal, so every memo warm-hits.
    n_evals = len(caches.evals)
    n_partitions = len(caches.partition)
    again_ev = DiffusionPipePlanner(
        uniform, single_node(4), uniform_profile,
        _options(group_sizes=(4,)), caches=caches,
    ).plan(64)
    assert len(caches.partition) == n_partitions
    assert len(caches.evals) == n_evals

    # The slow device slows the plan: its window's compute is scaled
    # up in both the DP and the simulated timeline.
    assert slow_ev.plan.iteration_ms > again_ev.plan.iteration_ms


def test_identity_speed_override_is_homogeneous(uniform, uniform_profile):
    """A factor-1.0 override is canonicalised away, so it neither
    splits the warm cache nor changes the plan."""
    caches = PlannerCaches()
    plain = DiffusionPipePlanner(
        uniform, single_node(4), uniform_profile,
        _options(group_sizes=(4,)), caches=caches,
    ).plan(64)
    n_partitions = len(caches.partition)
    noop = DiffusionPipePlanner(
        uniform, single_node(4, speed_factors={0: 1.0}), uniform_profile,
        _options(group_sizes=(4,)), caches=caches,
    ).plan(64)
    assert len(caches.partition) == n_partitions
    assert noop.plan == plain.plan


def test_chunked_schedule_rejects_speed_factors(uniform, uniform_profile):
    with pytest.raises(ConfigurationError, match="speed factors"):
        DiffusionPipePlanner(
            uniform,
            single_node(4, speed_factors={0: 0.5}),
            uniform_profile,
            _options(schedule="interleaved"),
        )


def test_memory_gate_uses_smallest_device(uniform, uniform_profile):
    """One under-provisioned device makes the whole cluster infeasible:
    the OOM bound is the minimum capacity, not the base spec's."""
    cluster = ClusterSpec(
        num_machines=1,
        devices_per_machine=4,
        device_specs={3: DeviceSpec(name="tiny", memory_bytes=1e3)},
    )
    planner = DiffusionPipePlanner(
        uniform, cluster, uniform_profile,
        _options(group_sizes=(4,), check_memory=True),
    )
    with pytest.raises(ConfigurationError):
        planner.plan(64)
