"""Export utilities: Chrome traces and plan serialisation.

* :func:`timeline_to_chrome_trace` converts a simulated
  :class:`~repro.schedule.Timeline` (plus optional bubble-filling items)
  into the Chrome tracing JSON format, viewable at ``chrome://tracing``
  or https://ui.perfetto.dev.
* :func:`plan_to_dict` / :func:`plan_from_dict` round-trip an
  :class:`~repro.core.ExecutionPlan` through plain JSON-compatible
  dictionaries, so plans can be stored next to training runs.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .core.plan import (
    BubbleUtilization,
    ExecutionPlan,
    FillItem,
    FillReport,
    MemoryReport,
    PartitionPlan,
    StageAssignment,
)
from .errors import ConfigurationError
from .schedule.tasks import TaskKind
from .schedule.timeline import Timeline
from .units import is_int

#: Chrome trace colour names per task kind.
_TRACE_COLOURS = {
    TaskKind.FORWARD: "good",
    TaskKind.SC_FORWARD: "vsync_highlight_color",
    TaskKind.BACKWARD: "bad",
    TaskKind.BACKWARD_W: "terrible",
    TaskKind.NT_FORWARD: "yellow",
    TaskKind.SYNC: "grey",
    TaskKind.COMM: "white",
}


def timeline_to_chrome_trace(
    timeline: Timeline,
    fill_items: Sequence[FillItem] = (),
    bubbles_by_index: Mapping[int, tuple[float, tuple[int, ...]]] | None = None,
    path: str | None = None,
) -> dict:
    """Convert a timeline to Chrome trace-event JSON.

    Durations are milliseconds in the simulator; Chrome traces use
    microseconds, so everything scales by 1000.  Each device becomes a
    thread; communications appear on per-link threads.
    """
    events = []
    for iv in timeline.intervals:
        if iv.duration <= 0:
            continue
        task = iv.task
        if task.device is not None:
            tid = f"device {task.device}"
        else:
            tid = task.resource
        event = {
            "name": task.task_id,
            "ph": "X",
            "ts": iv.start * 1e3,
            "dur": iv.duration * 1e3,
            "pid": "pipeline",
            "tid": tid,
            "args": dict(task.meta),
        }
        colour = _TRACE_COLOURS.get(task.kind)
        if colour:
            event["cname"] = colour
        events.append(event)

    if fill_items:
        if bubbles_by_index is None:
            raise ConfigurationError("fill items require bubble metadata")
        for item in fill_items:
            if item.bubble_index not in bubbles_by_index:
                raise ConfigurationError(
                    f"fill item references unknown bubble {item.bubble_index}"
                )
            start, devices = bubbles_by_index[item.bubble_index]
            for dev in devices:
                events.append(
                    {
                        "name": f"nt:{item.component}[{item.layer}]",
                        "ph": "X",
                        "ts": start * 1e3,
                        "dur": item.time_ms * 1e3,
                        "pid": "pipeline",
                        "tid": f"device {dev}",
                        "cname": "yellow",
                        "args": {
                            "samples": item.samples,
                            "partial": item.partial,
                        },
                    }
                )

    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        with open(path, "w") as f:
            json.dump(trace, f, indent=1)
    return trace


# ---------------------------------------------------------------------------
# Plan (de)serialisation
# ---------------------------------------------------------------------------


def _read(d: Mapping, key: str, kind: type, *default):
    """``d[key]`` (``default`` when given and the key is absent) if it
    is a ``kind``, numpy integers counting as ``int`` and ``bool`` not;
    ``int()`` and ``bool()`` would load ``1.5`` as 1 and ``"no"`` as
    True.  Else :class:`ConfigurationError` naming the key."""
    value = d.get(key, *default) if default else d[key]
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise ConfigurationError(
            f"plan field {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _stage_to_dict(st: StageAssignment) -> dict:
    return {
        "component": st.component, "lo": st.lo, "hi": st.hi,
        "replicas": st.replicas,
    }


def _stage_from_dict(d: Mapping) -> StageAssignment:
    return StageAssignment(
        component=str(d["component"]), lo=_read(d, "lo", int),
        hi=_read(d, "hi", int), replicas=_read(d, "replicas", int),
    )


def partition_to_dict(p: PartitionPlan) -> dict:
    return {
        "down": [_stage_to_dict(s) for s in p.down],
        "up": [_stage_to_dict(s) for s in p.up],
        "num_stages": p.num_stages,
        "num_micro_batches": p.num_micro_batches,
        "group_size": p.group_size,
        "batch_per_group": p.batch_per_group,
        "t_max_ms": p.t_max_ms,
        "w_ms": p.w_ms,
        "y_ms": p.y_ms,
        "self_conditioning": p.self_conditioning,
    }


def partition_from_dict(d: Mapping) -> PartitionPlan:
    return PartitionPlan(
        down=tuple(_stage_from_dict(s) for s in d["down"]),
        up=tuple(_stage_from_dict(s) for s in d["up"]),
        num_stages=_read(d, "num_stages", int),
        num_micro_batches=_read(d, "num_micro_batches", int),
        group_size=_read(d, "group_size", int),
        batch_per_group=float(d["batch_per_group"]),
        t_max_ms=float(d["t_max_ms"]),
        w_ms=float(d["w_ms"]),
        y_ms=float(d["y_ms"]),
        self_conditioning=_read(d, "self_conditioning", bool),
    )


def plan_to_dict(plan: ExecutionPlan) -> dict:
    """Serialise an execution plan to JSON-compatible primitives."""
    fill = None
    if plan.fill is not None:
        fill = {
            "items": [
                {
                    "component": i.component, "layer": i.layer,
                    "samples": i.samples, "time_ms": i.time_ms,
                    "bubble_index": i.bubble_index, "partial": i.partial,
                }
                for i in plan.fill.items
            ],
            "filled_device_time_ms": plan.fill.filled_device_time_ms,
            "bubble_device_time_ms": plan.fill.bubble_device_time_ms,
            "leftover_ms": plan.fill.leftover_ms,
            "num_bubbles": plan.fill.num_bubbles,
            "complete": plan.fill.complete,
            "strategy": plan.fill.strategy,
            "candidates_dropped": plan.fill.candidates_dropped,
            "states_pruned": plan.fill.states_pruned,
            "beam_peak": plan.fill.beam_peak,
            "per_bubble": [
                {
                    "bubble_index": u.bubble_index,
                    "duration_ms": u.duration_ms,
                    "weight": u.weight,
                    "filled_ms": u.filled_ms,
                }
                for u in plan.fill.per_bubble
            ],
        }
    memory = None
    if plan.memory is not None:
        memory = {
            "peak_bytes": plan.memory.peak_bytes,
            "capacity_bytes": plan.memory.capacity_bytes,
            "breakdown": dict(plan.memory.breakdown),
        }
    return {
        "model_name": plan.model_name,
        "schedule": plan.schedule,
        "partition": partition_to_dict(plan.partition),
        "data_parallel_degree": plan.data_parallel_degree,
        "global_batch": plan.global_batch,
        "pipeline_ms": plan.pipeline_ms,
        "leftover_ms": plan.leftover_ms,
        "iteration_ms": plan.iteration_ms,
        "throughput": plan.throughput,
        "bubble_ratio_unfilled": plan.bubble_ratio_unfilled,
        "bubble_ratio_filled": plan.bubble_ratio_filled,
        "fill": fill,
        "memory": memory,
        "notes": list(plan.notes),
    }


def plan_from_dict(d: Mapping) -> ExecutionPlan:
    """Reconstruct an execution plan from :func:`plan_to_dict` output."""
    fill = None
    if d.get("fill") is not None:
        fd = d["fill"]
        fill = FillReport(
            items=tuple(
                FillItem(
                    component=str(i["component"]), layer=_read(i, "layer", int),
                    samples=float(i["samples"]), time_ms=float(i["time_ms"]),
                    bubble_index=_read(i, "bubble_index", int),
                    partial=_read(i, "partial", bool),
                )
                for i in fd["items"]
            ),
            filled_device_time_ms=float(fd["filled_device_time_ms"]),
            bubble_device_time_ms=float(fd["bubble_device_time_ms"]),
            leftover_ms=float(fd["leftover_ms"]),
            num_bubbles=_read(fd, "num_bubbles", int),
            complete=_read(fd, "complete", bool),
            # Defaults keep plans written before the strategy refactor
            # (and before the lookahead search telemetry) loadable.
            strategy=str(fd.get("strategy", "greedy")),
            candidates_dropped=_read(fd, "candidates_dropped", int, 0),
            states_pruned=_read(fd, "states_pruned", int, 0),
            beam_peak=_read(fd, "beam_peak", int, 0),
            per_bubble=tuple(
                BubbleUtilization(
                    bubble_index=_read(u, "bubble_index", int),
                    duration_ms=float(u["duration_ms"]),
                    weight=_read(u, "weight", int),
                    filled_ms=float(u["filled_ms"]),
                )
                for u in fd.get("per_bubble", ())
            ),
        )
    memory = None
    if d.get("memory") is not None:
        md = d["memory"]
        memory = MemoryReport(
            peak_bytes=float(md["peak_bytes"]),
            capacity_bytes=float(md["capacity_bytes"]),
            breakdown=dict(md["breakdown"]),
        )
    return ExecutionPlan(
        model_name=str(d["model_name"]),
        # Default keeps plans written before the schedule-family
        # registry loadable: pre-registry plans were 1F1B for single
        # backbones and bidirectional for cascaded ones.
        schedule=str(
            d.get(
                "schedule",
                "bidirectional" if d["partition"].get("up") else "onef1b",
            )
        ),
        partition=partition_from_dict(d["partition"]),
        data_parallel_degree=_read(d, "data_parallel_degree", int),
        global_batch=float(d["global_batch"]),
        pipeline_ms=float(d["pipeline_ms"]),
        leftover_ms=float(d["leftover_ms"]),
        iteration_ms=float(d["iteration_ms"]),
        throughput=float(d["throughput"]),
        bubble_ratio_unfilled=float(d["bubble_ratio_unfilled"]),
        bubble_ratio_filled=float(d["bubble_ratio_filled"]),
        fill=fill,
        memory=memory,
        notes=tuple(d.get("notes", ())),
    )


def save_plan(plan: ExecutionPlan, path: str) -> None:
    """Write a plan to a JSON file."""
    with open(path, "w") as f:
        json.dump(plan_to_dict(plan), f, indent=2)


def load_plan(path: str) -> ExecutionPlan:
    """Read a plan from a JSON file."""
    with open(path) as f:
        return plan_from_dict(json.load(f))
