"""Elastic replanning: device churn without cold planner caches.

Training jobs on shared clusters gain and lose machines mid-run
(spot reclamation, maintenance, capacity hand-back).  Each such
*elastic event* changes the cluster identity, and the plan must be
recomputed for the new world — but almost everything the planner
computed before the event is still valid:

* partition DP tables are keyed on *resolved constants* (per-layer
  times from the profile, p2p/all-reduce :class:`CommCosts`, per-group
  batch), not on the cluster object, so any table whose constants are
  unchanged by the event is reused;
* under **weak scaling** — the global batch tracks the world size at a
  fixed per-device batch — the per-group batch ``B/dp = b·D`` is
  world-independent, so batches never split a warm entry across
  events;
* planner-level memos (partitions, evaluations, timelines) key on the
  canonicalised :class:`~repro.cluster.topology.ClusterSpec`, so a
  machine that leaves and later rejoins restores the *same* cluster
  identity and every memo warm-hits; a session hands back the very
  object it met first for each membership, so those hits match their
  keys by identity, without comparing clusters field by field.

:class:`ElasticSession` packages this: one model, one profile, one
shared :class:`~repro.core.caches.PlannerCaches` across a stream of
:class:`ElasticEvent`\\ s, with :meth:`ElasticSession.replan` building
a fresh planner per event against the warm stores.  The profile is
taken once, at session start: profiles record *nominal* per-device
layer times, and per-device speed is applied by the planner through
``ClusterSpec.speed_factors`` — re-profiling per event would discard
the weak-keyed DP tables for no information gain.

``benchmarks/test_elastic_replan.py`` gates the payoff: a replan after
a leave/rejoin round-trip must run >= 5x faster than a cold plan of
the same cluster, with bit-identical plan metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..cluster.topology import ClusterSpec
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.profiler import Profiler
from ..profiling.records import ProfileDB
from .caches import PlannerCaches, default_caches
from .plan import positive_int
from .planner import DiffusionPipePlanner, EvaluatedConfig, PlannerOptions

__all__ = ["ElasticEvent", "apply_event", "ElasticSession"]

#: event kinds understood by :func:`apply_event`
EVENT_KINDS = ("join", "leave")


@dataclass(frozen=True)
class ElasticEvent:
    """A machine-granularity membership change.

    Machines join at the *end* of the rank order and leave from the
    end, so surviving ranks keep their global ids (the layout is
    machine-major) and every override on a surviving rank stays
    attached to the same physical device.

    ``speed_factor`` applies to every device of a joining machine —
    the common elastic case of backfilling with a slower generation —
    and must be left ``None`` for leaves.
    """

    kind: str
    machines: int = 1
    speed_factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown elastic event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if not positive_int(self.machines):
            raise ConfigurationError(
                f"elastic event must move at least one machine, as an "
                f"integer, got {self.machines!r}"
            )
        if self.speed_factor is not None:
            if self.kind != "join":
                raise ConfigurationError(
                    "speed_factor only applies to joining machines"
                )
            if not self.speed_factor > 0:
                raise ConfigurationError(
                    f"joining speed factor must be positive, "
                    f"got {self.speed_factor}"
                )


def apply_event(cluster: ClusterSpec, event: ElasticEvent) -> ClusterSpec:
    """The cluster after an elastic event.

    Pure: returns a new canonicalised :class:`ClusterSpec`; a leave
    followed by an equal join of identity machines reproduces a spec
    that compares *equal* to the original, which is what lets every
    cluster-keyed planner memo warm-hit after a round-trip.
    """
    per = cluster.devices_per_machine
    if event.kind == "leave":
        remaining = cluster.num_machines - event.machines
        if remaining < 1:
            raise ConfigurationError(
                f"cannot remove {event.machines} machine(s) from a "
                f"{cluster.num_machines}-machine cluster"
            )
        world = remaining * per
        return replace(
            cluster,
            num_machines=remaining,
            speed_factors=tuple(
                (r, f) for r, f in cluster.speed_factors if r < world
            ),
            device_specs=tuple(
                (r, s) for r, s in cluster.device_specs if r < world
            ),
            link_overrides=tuple(
                (pair, link)
                for pair, link in cluster.link_overrides
                if max(pair) < remaining
            ),
        )
    total = cluster.num_machines + event.machines
    speed = dict(cluster.speed_factors)
    if event.speed_factor is not None:
        for rank in range(cluster.world_size, total * per):
            speed[rank] = event.speed_factor
    return replace(
        cluster,
        num_machines=total,
        speed_factors=tuple(sorted(speed.items())),
    )


class ElasticSession:
    """A planning session that survives device churn warm.

    Parameters
    ----------
    model / cluster:
        The training job and its initial membership.
    batch_per_device:
        Weak-scaling knob: every replan targets a global batch of
        ``batch_per_device * world_size``, so the per-group batch —
        and with it every batch-keyed DP table — is independent of
        how many machines are currently present.
    profile:
        Pre-computed :class:`ProfileDB`; profiled once on the initial
        cluster when omitted and reused across every event (nominal
        times; per-device speed enters through the cluster spec).
    options / caches:
        Passed to every planner the session builds.  The caches
        default to the process-wide store, mirroring
        :class:`~repro.core.planner.DiffusionPipePlanner`.
    """

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterSpec,
        *,
        batch_per_device: float,
        profile: ProfileDB | None = None,
        options: PlannerOptions | None = None,
        caches: PlannerCaches | None = None,
    ):
        if not 0 < batch_per_device < math.inf:
            raise ConfigurationError(
                "batch_per_device must be finite and positive, got "
                f"{batch_per_device}"
            )
        self.model = model
        self.cluster = cluster
        self.batch_per_device = batch_per_device
        self.profile = profile or Profiler(cluster).profile(model)
        self.options = options or PlannerOptions()
        self.caches = caches if caches is not None else default_caches()
        #: every event applied so far, oldest first
        self.events: list[ElasticEvent] = []
        # One ClusterSpec object per membership seen: a rejoin returns
        # the very object the memos were keyed with, so each warm hit
        # matches its key by identity instead of comparing clusters
        # field by field.
        self._clusters = {cluster: cluster}

    @property
    def global_batch(self) -> float:
        """The weak-scaled global batch of the current membership."""
        return self.batch_per_device * self.cluster.world_size

    def apply(self, event: ElasticEvent) -> ClusterSpec:
        """Apply one membership change and return the new cluster."""
        cluster = apply_event(self.cluster, event)
        self.cluster = self._clusters.setdefault(cluster, cluster)
        self.events.append(event)
        return self.cluster

    def replan(self) -> EvaluatedConfig:
        """Plan for the current membership against the warm caches."""
        planner = DiffusionPipePlanner(
            self.model,
            self.cluster,
            profile=self.profile,
            options=self.options,
            caches=self.caches,
        )
        return planner.plan(self.global_batch)
