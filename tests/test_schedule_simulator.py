"""Discrete-event simulator tests."""

import math

import pytest

from repro.errors import ScheduleError
from repro.schedule import (
    StageExec,
    Task,
    TaskKind,
    build_1f1b,
    device_resource,
    simulate,
)
from repro.schedule.tasks import link_resource, validate_task_graph


def _t(tid, res, dur, deps=(), prio=(), dev=None, kind=TaskKind.OTHER):
    return Task(
        task_id=tid, resource=res, duration=dur, deps=tuple(deps),
        kind=kind, priority=prio, device=dev,
    )


def test_sequential_dependency_chain():
    tasks = [
        _t("a", device_resource(0), 5, dev=0),
        _t("b", device_resource(0), 3, deps=["a"], dev=0),
        _t("c", device_resource(1), 2, deps=["b"], dev=1),
    ]
    tl = simulate(tasks, 2)
    assert tl.makespan == 10
    ends = {iv.task.task_id: iv.end for iv in tl.intervals}
    assert ends == {"a": 5, "b": 8, "c": 10}


def test_resource_serialisation():
    tasks = [
        _t("a", device_resource(0), 5, dev=0),
        _t("b", device_resource(0), 5, dev=0),
    ]
    tl = simulate(tasks, 1)
    assert tl.makespan == 10


def test_parallel_resources():
    tasks = [
        _t("a", device_resource(0), 5, dev=0),
        _t("b", device_resource(1), 5, dev=1),
    ]
    tl = simulate(tasks, 2)
    assert tl.makespan == 5


def test_priority_breaks_ties():
    tasks = [
        _t("lo", device_resource(0), 1, prio=(1,), dev=0),
        _t("hi", device_resource(0), 1, prio=(0,), dev=0),
    ]
    tl = simulate(tasks, 1)
    starts = {iv.task.task_id: iv.start for iv in tl.intervals}
    assert starts["hi"] == 0
    assert starts["lo"] == 1


def test_work_conserving_dispatch():
    """A lower-priority task that is ready earlier runs first: priority
    must not starve the resource."""
    tasks = [
        _t("gate", device_resource(1), 10, dev=1),
        # hi becomes ready only at t=10; lo is ready at t=0.
        _t("hi", device_resource(0), 1, deps=["gate"], prio=(0,), dev=0),
        _t("lo", device_resource(0), 4, prio=(5,), dev=0),
    ]
    tl = simulate(tasks, 2)
    starts = {iv.task.task_id: iv.start for iv in tl.intervals}
    assert starts["lo"] == 0
    assert starts["hi"] == 10


def test_cycle_detection():
    tasks = [
        _t("a", device_resource(0), 1, deps=["b"]),
        _t("b", device_resource(0), 1, deps=["a"]),
    ]
    with pytest.raises(ScheduleError, match="cycle"):
        simulate(tasks, 1)


def test_unknown_dependency_rejected():
    with pytest.raises(ScheduleError, match="unknown"):
        simulate([_t("a", device_resource(0), 1, deps=["ghost"])], 1)


def test_duplicate_ids_rejected():
    tasks = [_t("a", device_resource(0), 1), _t("a", device_resource(0), 1)]
    with pytest.raises(ScheduleError, match="duplicate"):
        simulate(tasks, 1)


def test_zero_duration_tasks():
    tasks = [
        _t("a", device_resource(0), 0, dev=0),
        _t("b", device_resource(0), 5, deps=["a"], dev=0),
    ]
    tl = simulate(tasks, 1)
    assert tl.makespan == 5


def test_empty_graph():
    tl = simulate([], 2)
    assert tl.makespan == 0.0
    assert tl.bubble_ratio() == 0.0


def test_comm_on_links_does_not_block_devices():
    tasks = [
        _t("f0", device_resource(0), 5, dev=0),
        _t("c", link_resource(0, 1), 3, deps=["f0"], kind=TaskKind.COMM),
        _t("f0b", device_resource(0), 5, deps=["f0"], dev=0),
        _t("f1", device_resource(1), 5, deps=["c"], dev=1),
    ]
    tl = simulate(tasks, 2)
    ends = {iv.task.task_id: iv.end for iv in tl.intervals}
    # Device 0 continues while the transfer is in flight.
    assert ends["f0b"] == 10
    assert ends["f1"] == 13


def test_validate_task_graph_self_dependency():
    with pytest.raises(ScheduleError):
        Task(task_id="a", resource="r", duration=1, deps=("a",))
    for bad in (-1, math.nan, math.inf):
        with pytest.raises(ScheduleError, match="duration"):
            Task(task_id="a", resource="r", duration=bad)
    by_id = validate_task_graph([_t("a", "r", 1)])
    assert set(by_id) == {"a"}


def test_task_on_device_outside_simulated_range_rejected():
    """A three-stage graph simulated on two devices used to drop device
    2's work and idle time from every per-device metric."""
    stages = [StageExec(index=i, fwd_ms=1.0, bwd_ms=2.0) for i in range(3)]
    tasks = build_1f1b(stages, 2)
    assert simulate(tasks, 3).bubble_device_time() == pytest.approx(18.0)
    with pytest.raises(ScheduleError, match=r"fwd\[2,0\].*device 2"):
        simulate(tasks, 2)
    with pytest.raises(ScheduleError, match="device -1"):
        simulate([_t("a", device_resource(0), 1, dev=-1)], 1)
