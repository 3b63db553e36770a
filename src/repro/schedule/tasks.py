"""Task graph primitives consumed by the discrete-event simulator.

A pipeline schedule is a DAG of :class:`Task` objects.  Each task runs on
exactly one *resource* (a device's compute engine, a directed link, a
device's collective engine) for a fixed duration, after all of its
dependencies complete.  The simulator dispatches ready tasks per resource
in priority order, which — together with statically-encoded in-flight
window dependencies — realises FIFO-1F1B, GPipe and bidirectional
schedules without bespoke event logic per schedule type.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ScheduleError


class TaskKind(enum.Enum):
    """What a task models; used for timeline rendering and accounting."""

    FORWARD = "forward"
    BACKWARD = "backward"          # grad-input (B), or the whole backward
    BACKWARD_W = "backward_w"      # grad-weight (W) of a split backward
    SC_FORWARD = "sc_forward"      # self-conditioning extra forward
    NT_FORWARD = "nt_forward"      # non-trainable (frozen) layer execution
    COMM = "comm"                  # inter-stage activation/gradient transfer
    SYNC = "sync"                  # gradient all-reduce (pipeline flush)
    OTHER = "other"


#: Task kinds that occupy a device's *compute* engine.  SYNC runs on the
#: collective engine and may be overlapped by NT compute (paper Fig. 9).
#: BACKWARD_W is compute: a zero-bubble schedule's W work counts as busy
#: time, which is exactly how it shrinks the bubble metric.
COMPUTE_KINDS = frozenset(
    {
        TaskKind.FORWARD,
        TaskKind.BACKWARD,
        TaskKind.BACKWARD_W,
        TaskKind.SC_FORWARD,
        TaskKind.NT_FORWARD,
    }
)


def device_resource(device: int) -> str:
    """Resource key of a device's compute engine."""
    return f"dev:{device}"


def link_resource(src: int, dst: int) -> str:
    """Resource key of the directed link from one device to another."""
    return f"link:{src}->{dst}"


def sync_resource(device: int) -> str:
    """Resource key of a device's collective (NCCL) engine."""
    return f"sync:{device}"


@dataclass(frozen=True)
class Task:
    """One schedulable unit.

    Parameters
    ----------
    task_id:
        Unique id within the schedule.
    resource:
        The resource the task occupies while running.
    duration:
        Execution time in ms (may be 0 for pure ordering tasks).
    deps:
        Ids of tasks that must complete before this one starts.
    kind:
        The :class:`TaskKind`.
    priority:
        Dispatch priority among ready tasks on the same resource
        (lower runs first); ties broken by insertion order.
    device:
        The device this task is *attributed to* for timeline accounting
        (comm tasks attribute to their source device; None hides the
        task from per-device accounting).
    meta:
        Free-form annotations (stage index, micro-batch index, ...).
    """

    task_id: str
    resource: str
    duration: float
    deps: tuple[str, ...] = ()
    kind: TaskKind = TaskKind.OTHER
    priority: tuple = ()
    device: int | None = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ScheduleError("task_id must be non-empty")
        if not 0.0 <= self.duration < math.inf:
            raise ScheduleError(
                f"task {self.task_id}: duration must be finite and "
                f"non-negative, got {self.duration}"
            )
        if self.task_id in self.deps:
            raise ScheduleError(f"task {self.task_id} depends on itself")


def validate_task_graph(tasks: list[Task]) -> dict[str, Task]:
    """Check uniqueness and referential integrity; return an id->task map."""
    by_id: dict[str, Task] = {}
    for t in tasks:
        if t.task_id in by_id:
            raise ScheduleError(f"duplicate task id {t.task_id}")
        by_id[t.task_id] = t
    for t in tasks:
        for d in t.deps:
            if d not in by_id:
                raise ScheduleError(f"task {t.task_id} depends on unknown {d}")
    return by_id
