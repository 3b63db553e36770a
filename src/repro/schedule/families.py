"""Schedule families: a registry of pipeline schedule builders.

Mirrors the :mod:`repro.core.fill_strategies` registry — the planner
(and the CLI's ``--schedule``) selects a family by name instead of
importing builders directly, so new schedule shapes plug in without
touching planner code.  Every family lowers to one task-graph builder,
:func:`~repro.schedule.onef1b.build_1f1b`.  Registered families:

``onef1b``
    The paper's FIFO-1F1B (:func:`~repro.schedule.onef1b.build_1f1b`).
``gpipe``
    The 1F1B graph with ``forwards_first=True``
    (:func:`~repro.schedule.gpipe.build_gpipe`): no in-flight window,
    and a ready forward always beats a ready backward, so a backward can
    still start while a later micro-batch's forward has not arrived.
    The only family with ``forwards_first=True``; the §6 baseline rides
    the same code path as the planner families.
``bidirectional``
    The §4.2 two-backbone Chimera-style composition for cascaded
    models (two 1F1B graphs, the up one on the reversed device chain);
    the only family with ``cascaded=True``.
``interleaved``
    Megatron-style virtual stages: each device hosts ``v``
    non-contiguous chunks, 1F1B over the chunk chain
    (:func:`~repro.schedule.interleaved.build_interleaved`);
    ``chunked=True`` tells the planner to subdivide stage layer ranges.
``zerobubble``
    Split-backward ZB-H1 style: B (grad-input) stays on the gradient
    chain, W (grad-weight) slides into bubbles
    (:func:`~repro.schedule.zerobubble.build_zerobubble`);
    ``splits_backward=True`` selects B/W pricing in the partition DPs.

Every family builds from the same inputs (stage chains + micro-batch
count) and returns a plain task list for the discrete-event simulator;
``simulate`` needs no per-family logic.  ``forwards_first`` is also the
activation window the memory estimator prices: ``M`` micro-batches per
stage when set, the 1F1B window otherwise.  Each family's ``floor``
takes ``build``'s arguments and bounds the simulated makespan of that
graph from below in closed form
(:func:`~repro.schedule.onef1b.makespan_floor` over the chains ``build``
lowers to); the planner's bound ladder skips the simulation of
configurations whose floor cannot win.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from ..errors import ConfigurationError
from .bidirectional import (
    BIDIRECTIONAL_COMM_SCALE,
    bidirectional_chains,
    build_bidirectional,
)
from .gpipe import build_gpipe
from .interleaved import build_interleaved, interleaved_order
from .onef1b import build_1f1b, makespan_floor
from .stages import StageExec
from .tasks import Task
from .zerobubble import build_zerobubble


class ScheduleFamily(Protocol):
    """A pipeline schedule shape the planner can search over."""

    #: registry name (also the CLI / PlannerOptions spelling)
    name: str
    #: True if the family composes two backbones over one device chain
    cascaded: bool
    #: True if ``stages`` is a chunk chain needing ``num_devices``
    chunked: bool
    #: True if the family prices/schedules B and W separately
    splits_backward: bool
    #: True if the graph has no in-flight window and runs ready forwards
    #: before ready backwards (``build_1f1b(..., forwards_first=True)``);
    #: the memory estimator then keeps all ``M`` micro-batches alive
    forwards_first: bool

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        ...  # pragma: no cover - protocol

    def floor(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> float:
        """A lower bound on ``simulate(self.build(...)).makespan`` for
        the same arguments, in closed form."""
        ...  # pragma: no cover - protocol


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


def _reject_cascaded(name: str, up) -> None:
    if up is not None:
        raise ConfigurationError(
            f"schedule family {name!r} builds a single backbone; "
            "cascaded models need the 'bidirectional' family"
        )


def _chain_floor(
    self,
    stages: Sequence[StageExec],
    num_micro_batches: int,
    *,
    up: Sequence[StageExec] | None = None,
    num_devices: int | None = None,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
) -> float:
    """``floor`` of the single-chain families: stage ``s`` on device
    ``s``, the backward split where the family splits it."""
    _reject_cascaded(self.name, up)
    return makespan_floor(
        [(stages, range(len(stages)))],
        num_micro_batches,
        self_conditioning=self_conditioning,
        feedback_ms=feedback_ms,
        split_backward=self.splits_backward,
    )


@register_schedule_family("onef1b")
class OneF1BFamily:
    name = "onef1b"
    cascaded = False
    chunked = False
    splits_backward = False
    forwards_first = False
    floor = _chain_floor

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        _reject_cascaded(self.name, up)
        return build_1f1b(
            stages,
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )


@register_schedule_family("gpipe")
class GPipeFamily:
    name = "gpipe"
    cascaded = False
    chunked = False
    splits_backward = False
    forwards_first = True
    floor = _chain_floor

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        _reject_cascaded(self.name, up)
        return build_gpipe(
            stages,
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )


@register_schedule_family("bidirectional")
class BidirectionalFamily:
    name = "bidirectional"
    cascaded = True
    chunked = False
    splits_backward = False
    forwards_first = False

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        return build_bidirectional(
            stages,
            self._up(up),
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )

    def floor(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> float:
        return makespan_floor(
            bidirectional_chains(stages, self._up(up)),
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
            comm_scale=BIDIRECTIONAL_COMM_SCALE,
        )

    @staticmethod
    def _up(up: Sequence[StageExec] | None) -> Sequence[StageExec]:
        if up is None:
            raise ConfigurationError(
                "the 'bidirectional' family needs an up-pipeline stage "
                "chain (cascaded models only)"
            )
        return up


@register_schedule_family("interleaved")
class InterleavedFamily:
    name = "interleaved"
    cascaded = False
    chunked = True
    splits_backward = False
    forwards_first = False

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        return build_interleaved(
            stages,
            num_micro_batches,
            self._devices(up, num_devices),
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )

    def floor(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> float:
        order = interleaved_order(len(stages), self._devices(up, num_devices))
        return makespan_floor(
            [(stages, order)],
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )

    def _devices(self, up, num_devices: int | None) -> int:
        _reject_cascaded(self.name, up)
        if num_devices is None:
            raise ConfigurationError(
                "the 'interleaved' family needs num_devices (stages is "
                "a chunk chain placed round-robin)"
            )
        return num_devices


@register_schedule_family("zerobubble")
class ZeroBubbleFamily:
    name = "zerobubble"
    cascaded = False
    chunked = False
    splits_backward = True
    forwards_first = False
    floor = _chain_floor

    def build(
        self,
        stages: Sequence[StageExec],
        num_micro_batches: int,
        *,
        up: Sequence[StageExec] | None = None,
        num_devices: int | None = None,
        self_conditioning: bool = False,
        feedback_ms: float = 0.0,
    ) -> list[Task]:
        _reject_cascaded(self.name, up)
        return build_zerobubble(
            stages,
            num_micro_batches,
            self_conditioning=self_conditioning,
            feedback_ms=feedback_ms,
        )
