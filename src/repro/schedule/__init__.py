"""Pipeline schedules: task graphs, schedule families and the event
simulator.

Schedule construction goes through the :mod:`~repro.schedule.families`
registry — ``get_family(name).build(...)`` — so the planner, baselines
and harness share one code path per family.  Every family lowers to one
task-graph builder, ``build_1f1b``; it stays importable here for its own
unit tests but is not listed in ``__all__``, and an AST gate
(``tests/test_no_direct_builder_imports.py``) keeps production code
outside this package off it.
"""

from .families import (
    BIDIRECTIONAL_COMM_SCALE,
    SCHEDULE_FAMILIES,
    ScheduleFamily,
    get_family,
    register_schedule_family,
    schedule_family_names,
)
from .onef1b import FLOOR_MARGIN, build_1f1b
from .simulator import simulate
from .stages import StageExec, validate_stages
from .tasks import (
    COMPUTE_KINDS,
    Task,
    TaskKind,
    device_resource,
    link_resource,
    sync_resource,
    validate_task_graph,
)
from .timeline import IdleSpan, Interval, Timeline

__all__ = [
    # the registry is the public construction surface
    "SCHEDULE_FAMILIES",
    "ScheduleFamily",
    "get_family",
    "register_schedule_family",
    "schedule_family_names",
    "BIDIRECTIONAL_COMM_SCALE",
    # simulation + data types
    "simulate",
    "FLOOR_MARGIN",
    "StageExec",
    "validate_stages",
    "COMPUTE_KINDS",
    "Task",
    "TaskKind",
    "device_resource",
    "link_resource",
    "sync_resource",
    "validate_task_graph",
    "IdleSpan",
    "Interval",
    "Timeline",
]
