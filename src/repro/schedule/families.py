"""Schedule families: a registry of pipeline schedule shapes.

Mirrors the :mod:`repro.core.fill_strategies` registry — the planner
(and the CLI's ``--schedule``) selects a family by name instead of
importing builders directly, so new schedule shapes plug in without
touching planner code.

A family is a *placement* plus *flags*.  The placement is its
``chains(stages, up=None)``: the ``(stages, device_order)`` chains a
stage list lowers to, and the only code that decides which device
hosts which stage.  ``virtual_stages`` is its number of chunks per
device.  The flags are the class attributes ``forwards_first``,
``splits_backward`` and ``comm_scale``, which go straight to the one
task-graph builder, :func:`~repro.schedule.onef1b.build_1f1b`, and to
its closed-form makespan bound,
:func:`~repro.schedule.onef1b.makespan_floor`.  One shared ``build``
lowers the chains to task graphs (ids prefixed ``dn/`` and ``up/`` when
there are two) and one shared ``floor`` bounds their simulated
makespan.  The memory estimator hosts each device's stages by walking
the same chains, and the planner derives from them the simulator's
device weights (:func:`device_weights`, which the Chimera baseline
shares) and each stage's speed window.  So nothing can put a
stage on different devices — which the planner's bound ladder relies
on to skip the simulation of configurations whose floor cannot win.

``chains`` only places stages: it takes any stage sequence whose items
carry ``replicas`` (:class:`~repro.schedule.stages.StageExec` chains,
or a partition's :class:`~repro.core.plan.StageAssignment` chains),
checks only that the stages it puts on one device agree on replicas,
and leaves the rest of their validation to ``build_1f1b`` and
``makespan_floor``.
Every family builds from the same inputs (stage chains + micro-batch
count) and returns a plain task list for the discrete-event simulator;
``simulate`` needs no per-family logic.  ``forwards_first`` is also the
activation window the memory estimator prices: ``M`` micro-batches per
stage when set, the 1F1B window otherwise.  ``cascaded`` and
``virtual_stages`` tell the planner which partitioner to run.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ConfigurationError
from .onef1b import build_1f1b, makespan_floor
from .stages import StageExec
from .tasks import Task

#: the paper enlarges communication time by 2x for bidirectional
#: pipelines (§4.2); the CDM partition DP prices the same factor
BIDIRECTIONAL_COMM_SCALE = 2.0

#: a stage chain and the device each of its stages runs on; the stages
#: are any items carrying ``replicas``
Chain = tuple[Sequence, Sequence[int]]


class ScheduleFamily:
    """A pipeline schedule shape the planner can search over.

    The base class is the single-chain placement (``virtual_stages``
    chunks per device, round-robin), the flags' defaults, and the
    ``build`` and ``floor`` every family shares; a registered family
    overrides flags and, for another placement, ``chains``.
    """

    #: registry name (also the CLI / PlannerOptions spelling)
    name: str
    #: True if the family composes two backbones over one device chain
    cascaded = False
    #: chunks of the stage chain per device; above 1 the planner cuts
    #: the backbone into ``virtual_stages`` chunks per stage position
    virtual_stages = 1
    #: True if the family prices/schedules B and W separately
    #: (``build_1f1b(..., split_backward=True)``)
    splits_backward = False
    #: True if the graph has no in-flight window and runs ready forwards
    #: before ready backwards (``build_1f1b(..., forwards_first=True)``);
    #: the memory estimator then keeps all ``M`` micro-batches alive
    forwards_first = False
    #: multiplier on every communication duration
    comm_scale = 1.0

    def chains(
        self, stages: Sequence, up: Sequence | None = None
    ) -> list[Chain]:
        """The ``(stages, device_order)`` chains ``build`` and ``floor``
        lower to: one chain of ``v = virtual_stages`` chunks per device,
        chunk ``c`` on device ``c mod (len(stages) / v)`` — stage ``s``
        on device ``s`` when ``v`` is 1.  Chunks on one device must
        have the same replica count."""
        if up is not None:
            raise ConfigurationError(
                f"schedule family {self.name!r} builds a single backbone; "
                "cascaded models need the 'bidirectional' family"
            )
        v = self.virtual_stages
        if len(stages) % v != 0:
            raise ConfigurationError(
                f"schedule family {self.name!r} needs a whole number of "
                f"chunks per device (got {len(stages)} chunks, {v} per "
                "device)"
            )
        devices = len(stages) // v
        for c in range(devices, len(stages)):
            d = c % devices
            if stages[c].replicas != stages[d].replicas:
                raise ConfigurationError(
                    f"co-located chunks disagree on replication at device "
                    f"{d}: chunk {d} has {stages[d].replicas} replicas, "
                    f"chunk {c} has {stages[c].replicas}"
                )
        return [(stages, [c % devices for c in range(len(stages))])]

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        """The task graph: one :func:`build_1f1b` graph per chain, ids
        prefixed ``dn/`` and ``up/`` when there are two."""
        chains = self.chains(stages, up)
        prefixes = ("dn/", "up/") if len(chains) == 2 else ("",)
        tasks: list[Task] = []
        for prefix, (chain, device_order) in zip(prefixes, chains):
            tasks += build_1f1b(
                chain,
                num_micro_batches,
                self_conditioning=self_conditioning,
                feedback_ms=feedback_ms,
                id_prefix=prefix,
                device_order=device_order,
                comm_scale=self.comm_scale,
                forwards_first=self.forwards_first,
                split_backward=self.splits_backward,
            )
        return tasks

    def floor(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> float:
        """A lower bound on ``simulate(self.build(...)).makespan`` for
        the same arguments, in closed form."""
        return makespan_floor(
            self.chains(stages, up),
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
            comm_scale=self.comm_scale,
            split_backward=self.splits_backward,
        )


def device_weights(chains: Sequence[Chain]) -> dict[int, int]:
    """``{device: replicas}`` of a family's ``chains``, devices in
    order: the simulator's device weights.  Every stage a device hosts
    has the same replica count (``chains`` checks it)."""
    hosts: dict[int, int] = {}
    for chain, device_order in chains:
        for st, d in zip(chain, device_order):
            hosts.setdefault(d, st.replicas)
    return {d: hosts[d] for d in range(len(hosts))}


SCHEDULE_FAMILIES: dict[str, Callable[[], ScheduleFamily]] = {}


def register_schedule_family(name: str):
    """Class decorator adding a family factory under ``name``."""

    def deco(cls):
        SCHEDULE_FAMILIES[name] = cls
        return cls

    return deco


def get_family(name: str) -> ScheduleFamily:
    """Instantiate the family registered under ``name``."""
    factory = SCHEDULE_FAMILIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown schedule family {name!r}; "
            f"registered: {schedule_family_names()}"
        )
    return factory()


def schedule_family_names() -> tuple[str, ...]:
    """Registered family names, sorted (CLI choices, docs)."""
    return tuple(sorted(SCHEDULE_FAMILIES))


# Each registered class binds ``build`` in its own ``__dict__``: tools
# that time a family's schedule build (perfbench's tracer) wrap it there,
# one class at a time.


@register_schedule_family("onef1b")
class OneF1BFamily(ScheduleFamily):
    """The paper's FIFO-1F1B (Fig. 2 / Fig. 10)."""

    name = "onef1b"
    build = ScheduleFamily.build


@register_schedule_family("gpipe")
class GPipeFamily(ScheduleFamily):
    """GPipe (Huang et al. 2019): the 1F1B graph with
    ``forwards_first=True``.

    There is no in-flight window — no forward waits for a backward, so
    every micro-batch's activations stay alive until its backward, which
    is what gives GPipe its higher memory footprint (the memory
    estimator prices all ``M`` micro-batches on every stage, an upper
    bound) — and a ready forward (or SC forward) always beats a ready
    backward on its device, with syncs last.  Dispatch stays
    work-conserving, so this is not a strict all-forwards-then-all-
    backwards barrier: on skewed stages a backward can start on a
    device while a later micro-batch's forward has not yet arrived
    there.

    The paper evaluates GPipe with equal-layer-count partitioning, 2
    stages and 4 micro-batches (§6, Baselines); the equal partitioning
    lives in :mod:`repro.baselines.gpipe`, whose baseline rides this
    family.
    """

    name = "gpipe"
    forwards_first = True
    build = ScheduleFamily.build


@register_schedule_family("bidirectional")
class BidirectionalFamily(ScheduleFamily):
    """Bidirectional (Chimera-style) pipelines for cascaded models.

    Two backbones pipeline over the *same* device chain in opposite
    directions (§4.2, Fig. 3): the "down" backbone's stage ``s`` runs on
    device ``s`` while the "up" backbone's stage ``s`` runs on device
    ``S - 1 - s``.  Each backbone runs its own FIFO-1F1B schedule; the
    device's dispatch interleaves them, and each pipeline's
    micro-batches slot into the other's bubbles.

    Communication durations are doubled relative to the unidirectional
    case because the two pipelines compete for link resources (the
    paper's factor-2 enlargement, :data:`BIDIRECTIONAL_COMM_SCALE`).
    """

    name = "bidirectional"
    cascaded = True
    comm_scale = BIDIRECTIONAL_COMM_SCALE
    build = ScheduleFamily.build

    def chains(
        self, stages: Sequence, up: Sequence | None = None
    ) -> list[Chain]:
        """Down stage ``s`` on device ``s``, up stage ``s`` on device
        ``S - 1 - s``.  Both chains must have the same length, and
        co-located stages the same replica count."""
        if up is None:
            raise ConfigurationError(
                "the 'bidirectional' family needs an up-pipeline stage "
                "chain (cascaded models only)"
            )
        S = len(stages)
        if len(up) != S:
            raise ConfigurationError(
                f"bidirectional pipelines need equal stage counts "
                f"(got {S} and {len(up)})"
            )
        for i in range(S):
            # Chain position i hosts down stage i and up stage S-1-i on
            # the same physical devices, so their replica counts must
            # agree — heterogeneous partitions assign one count per
            # position.
            if stages[i].replicas != up[S - 1 - i].replicas:
                raise ConfigurationError(
                    f"co-located stages disagree on replication at device "
                    f"{i}: down stage {i} has {stages[i].replicas} replicas, "
                    f"up stage {S - 1 - i} has {up[S - 1 - i].replicas}"
                )
        return [(stages, range(S)), (up, range(S - 1, -1, -1))]


@register_schedule_family("interleaved")
class InterleavedFamily(ScheduleFamily):
    """Interleaved 1F1B (Megatron-style virtual stages).

    Each device hosts ``v = virtual_stages`` non-contiguous *chunks* of
    the layer chain: chunk ``c`` of ``v * D`` total runs on device
    ``c mod D``, so device 0 hosts chunks ``0, D, 2D, ...`` (the base
    placement with ``v = 2``, Megatron's default).  The pipeline then
    runs plain FIFO-1F1B over the chunk chain — every warm-up and
    cool-down ramp is paid in per-chunk stage time (``~1/v`` of the
    contiguous stage time), which is what shrinks the fill/drain
    bubbles, at the cost of ``v``-fold more inter-stage traffic.
    Dispatch priorities (micro-batch first, forward before backward)
    give each device the interleaved ordering over its chunks' slots.
    Chunk costs must already be per-chunk: the planner partitions the
    layer chain into ``v`` chunks per stage position.
    """

    name = "interleaved"
    virtual_stages = 2
    build = ScheduleFamily.build


@register_schedule_family("zerobubble")
class ZeroBubbleFamily(ScheduleFamily):
    """Zero-bubble (ZB-H1 style): 1F1B with the backward split into B
    (grad-input) and W (grad-weight).

    Following sail-sg/zero-bubble's observation, only the grad-input
    half of a backward sits on the inter-stage critical path — the
    gradient sent to stage ``s-1`` is ready as soon as ``dy @ W^T``
    finishes — while the grad-weight GEMM (``x^T @ dy``) is needed only
    before the optimizer step.  ``build_1f1b(..., split_backward=True)``
    runs each backward as B, so the ramps and gradient transfers shorten
    to B's length, and adds a W task ordered after every forward and B,
    which the work-conserving dispatch slides into what were pipeline
    bubbles; the gradient all-reduce waits for all of a stage's W tasks.

    The in-flight window keys on W, the ZB-H1 rule: a micro-batch holds
    the inputs its W needs, so a new forward starts only once the W of
    its window predecessor is done.  Each stage then keeps at most the
    1F1B window of micro-batches alive, which is what the memory
    estimator prices.  ``splits_backward=True`` also selects B/W
    pricing in the partition DPs.
    """

    name = "zerobubble"
    splits_backward = True
    build = ScheduleFamily.build
