"""Timeline metrics tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.schedule import (
    StageExec,
    Task,
    TaskKind,
    Timeline,
    build_1f1b,
    device_resource,
    simulate,
)
from repro.schedule.timeline import Interval


def _iv(start, end, dev, kind=TaskKind.FORWARD, tid=None):
    task = Task(
        task_id=tid or f"t{start}-{end}-{dev}-{kind.value}",
        resource=device_resource(dev),
        duration=end - start,
        kind=kind,
        device=dev,
    )
    return Interval(start, end, task)


def test_makespan_and_busy_spans():
    tl = Timeline([_iv(0, 5, 0), _iv(7, 10, 0)], num_devices=1)
    assert tl.makespan == 10
    assert tl.busy_spans(0, {TaskKind.FORWARD}) == [(0, 5), (7, 10)]


def test_busy_span_merging():
    tl = Timeline([_iv(0, 5, 0), _iv(5, 8, 0), _iv(4, 6, 0)], num_devices=1)
    assert tl.busy_spans(0, {TaskKind.FORWARD}) == [(0, 8)]


def test_idle_spans():
    tl = Timeline([_iv(2, 5, 0), _iv(8, 10, 0)], num_devices=1)
    idles = tl.idle_spans(0)
    assert [(s.start, s.end) for s in idles] == [(0, 2), (5, 8)]


def test_idle_spans_sync_handling():
    ivs = [_iv(0, 4, 0), _iv(4, 6, 0, TaskKind.SYNC), _iv(8, 10, 0)]
    tl = Timeline(ivs, num_devices=1)
    # Sync counts as busy for bubble-ratio purposes...
    strict = tl.idle_spans(0, include_sync_as_busy=True)
    assert [(s.start, s.end) for s in strict] == [(6, 8)]
    # ...but as available time for bubble filling.
    fillable = tl.idle_spans(0, include_sync_as_busy=False)
    assert [(s.start, s.end) for s in fillable] == [(4, 8)]


def test_bubble_metrics_with_weights():
    # Device 0 busy [0,10); device 1 busy [5,10) -> 5 ms idle on dev 1.
    tl = Timeline(
        [_iv(0, 10, 0), _iv(5, 10, 1)],
        num_devices=2,
        device_weights={0: 2, 1: 2},
    )
    assert tl.bubble_device_time() == 10.0   # 5 ms x weight 2
    assert tl.total_physical_devices == 4
    assert tl.bubble_ratio() == pytest.approx(10.0 / (10.0 * 4))


def test_compute_device_time():
    tl = Timeline([_iv(0, 4, 0), _iv(0, 2, 1)], num_devices=2,
                  device_weights={0: 1, 1: 3})
    assert tl.compute_device_time() == 4 + 2 * 3


def test_ascii_rendering():
    tl = Timeline(
        [_iv(0, 5, 0), _iv(5, 10, 0, TaskKind.BACKWARD), _iv(2, 4, 1, TaskKind.SYNC)],
        num_devices=2,
    )
    art = tl.to_ascii(width=20)
    lines = art.splitlines()
    assert len(lines) == 3  # 2 devices + axis
    assert "F" in lines[0] and "B" in lines[0]
    assert "=" in lines[1]
    assert Timeline([], 1).to_ascii() == "(empty timeline)"


def test_interval_validation():
    task = Task(
        task_id="ok", resource=device_resource(0), duration=1.0,
        kind=TaskKind.FORWARD, device=0,
    )
    with pytest.raises(SimulationError):
        Interval(5, 3, task)
    with pytest.raises(SimulationError):
        Timeline([], num_devices=0)


def test_device_weights_are_counts_of_simulated_devices():
    """A weight for a device outside the simulated ones used to count
    toward the physical devices (6 instead of 3 here), and a zero or
    fractional weight toward the bubble device-time (7.5 ms below);
    both name the device and the weight now."""
    with pytest.raises(SimulationError, match="device 5 has weight 3"):
        Timeline([], 2, {0: 1, 1: 2, 5: 3})
    stages = [StageExec(index=i, fwd_ms=1.0, bwd_ms=2.0) for i in range(2)]
    tasks = build_1f1b(stages, 2)
    with pytest.raises(SimulationError, match="device 0 has weight 0"):
        simulate(tasks, 2, {0: 0, 1: 2})
    with pytest.raises(SimulationError, match="device 1 has weight 2.5"):
        simulate(tasks, 2, {0: 1, 1: 2.5})
    with pytest.raises(SimulationError, match="weight True"):
        Timeline([], 1, {0: True})
    with pytest.raises(SimulationError, match="device -1"):
        Timeline([], 2, {-1: 1})
    assert Timeline([], 2, {1: np.int64(3)}).total_physical_devices == 4
