"""Equivalence of the event-driven simulator and the reference engine.

``simulate`` (event-driven, heap-based) must produce *identical*
interval sequences — same tasks, same start/end times, same commit
order — as ``simulate_reference`` (the original full-rescan list
scheduler, kept in ``tests/oracles/``) on every schedule family the repository builds: FIFO-1F1B,
GPipe, bidirectional, self-conditioning variants, filled schedules with
injected non-trainable work, and planner-produced task graphs over the
model-zoo fixtures.
"""

from __future__ import annotations

import random

import pytest

from repro.core.planner import DiffusionPipePlanner, PlannerOptions
from repro.schedule import (
    StageExec,
    Task,
    TaskKind,
    build_1f1b,
    device_resource,
    get_family,
    simulate,
)
from repro.errors import ScheduleError
from tests.oracles import simulate_reference


def _keys(timeline):
    return [
        (iv.start, iv.end, iv.task.task_id, iv.task.resource)
        for iv in timeline.intervals
    ]


def assert_equivalent(tasks, num_devices, weights=None):
    fast = simulate(tasks, num_devices, weights)
    ref = simulate_reference(tasks, num_devices, weights)
    assert _keys(fast) == _keys(ref)
    assert fast.makespan == ref.makespan
    assert fast.bubble_ratio() == ref.bubble_ratio()
    return fast


UNIFORM = [StageExec(index=i, fwd_ms=10.0, bwd_ms=20.0) for i in range(4)]
SKEWED = [
    StageExec(index=0, fwd_ms=5.0, bwd_ms=9.0, send_fwd_ms=1.0, send_bwd_ms=1.0,
              sync_ms=12.0),
    StageExec(index=1, fwd_ms=20.0, bwd_ms=37.0, send_fwd_ms=2.0, send_bwd_ms=2.0,
              sync_ms=30.0),
    StageExec(index=2, fwd_ms=8.0, bwd_ms=15.0, sync_ms=6.0),
]
REPLICATED = [
    StageExec(index=i, fwd_ms=7.0 + i, bwd_ms=13.0 + 2 * i, send_fwd_ms=0.5,
              send_bwd_ms=0.5, sync_ms=4.0, replicas=2)
    for i in range(2)
]


@pytest.mark.parametrize("stages", [UNIFORM, SKEWED, REPLICATED])
@pytest.mark.parametrize("M", [1, 2, 4, 7])
def test_1f1b_equivalence(stages, M):
    assert_equivalent(build_1f1b(stages, M), len(stages),
                      {i: s.replicas for i, s in enumerate(stages)})


@pytest.mark.parametrize("stages", [UNIFORM, SKEWED])
@pytest.mark.parametrize("M", [1, 3, 6])
def test_gpipe_equivalence(stages, M):
    assert_equivalent(get_family("gpipe").build(stages, M), len(stages))


@pytest.mark.parametrize("M", [2, 4])
def test_1f1b_self_conditioning_equivalence(M):
    tasks = build_1f1b(SKEWED, M, self_conditioning=True, feedback_ms=3.5)
    assert_equivalent(tasks, len(SKEWED))


@pytest.mark.parametrize("M", [1, 2, 4])
def test_bidirectional_equivalence(M):
    down = [StageExec(index=i, fwd_ms=10.0 + i, bwd_ms=21.0 - i, sync_ms=5.0,
                      send_fwd_ms=1.0, send_bwd_ms=1.0) for i in range(3)]
    up = [StageExec(index=i, fwd_ms=6.0 + 2 * i, bwd_ms=11.0 + i, sync_ms=4.0,
                    send_fwd_ms=0.7, send_bwd_ms=0.7) for i in range(3)]
    assert_equivalent(get_family("bidirectional").build(down, M, up=up), 3)


def test_filled_schedule_equivalence():
    """A 1F1B schedule with non-trainable fill work injected into the
    warm-up/cool-down bubbles (what §5's filling produces)."""
    tasks = list(build_1f1b(UNIFORM, 4))
    bwd_ids = [t.task_id for t in tasks if t.kind == TaskKind.BACKWARD]
    for i in range(3):
        # NT layers on the last device, gated on early backward work.
        tasks.append(
            Task(
                task_id=f"nt{i}",
                resource=device_resource(3),
                duration=4.0,
                deps=(bwd_ids[i],),
                kind=TaskKind.NT_FORWARD,
                priority=(9, i),
                device=3,
            )
        )
    assert_equivalent(tasks, 4)


def test_zero_duration_and_zero_dep_equivalence():
    """Ordering-only tasks (duration 0) and the zero-dependency
    ``default=0.0`` ready-time path behave identically."""
    tasks = [
        Task(task_id="gate", resource="ctl", duration=0.0, priority=(0,)),
        Task(task_id="a", resource=device_resource(0), duration=5.0,
             deps=("gate",), priority=(1,), device=0),
        Task(task_id="b", resource=device_resource(0), duration=0.0,
             deps=("a",), priority=(0,), device=0),
        Task(task_id="c", resource=device_resource(0), duration=3.0,
             priority=(2,), device=0),
    ]
    assert_equivalent(tasks, 1)


def test_work_conserving_dispatch_equivalence():
    """A lower-priority task that is ready earlier must run first on
    both engines (work-conserving FIFO dispatch)."""
    tasks = [
        Task(task_id="early", resource="r", duration=2.0, priority=(5,)),
        Task(task_id="dep", resource="other", duration=1.0, priority=(0,)),
        Task(task_id="late", resource="r", duration=2.0, deps=("dep",),
             priority=(0,)),
    ]
    tl = assert_equivalent(tasks, 1)
    order = [iv.task.task_id for iv in tl.intervals if iv.task.resource == "r"]
    assert order == ["early", "late"]


def test_empty_graph_equivalence():
    assert _keys(simulate([], 2)) == _keys(simulate_reference([], 2)) == []


def test_cycle_raises_on_both_engines():
    tasks = [
        Task(task_id="a", resource="r", duration=1.0, deps=("b",)),
        Task(task_id="b", resource="r", duration=1.0, deps=("a",)),
    ]
    with pytest.raises(ScheduleError):
        simulate(tasks, 1)
    with pytest.raises(ScheduleError):
        simulate_reference(tasks, 1)


def test_planner_schedules_equivalence(uniform, uniform_profile, cluster8):
    """Planner-built task graphs over the zoo fixtures (real comm/sync
    times) simulate identically on both engines."""
    planner = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile,
        options=PlannerOptions(max_stages=4, check_memory=False),
    )
    for S, M in [(2, 2), (2, 4), (4, 4), (4, 8)]:
        partition = planner._partition(64.0, S, S, M, heterogeneous=False)
        stages, _, _ = planner._build_args(partition, sc=False)
        assert_equivalent(build_1f1b(stages, M), S)


def _random_dag(rng, n, num_resources=5, max_deps=3):
    tasks = []
    for i in range(n):
        ndeps = rng.randint(0, min(max_deps, i))
        deps = tuple(rng.sample([f"t{j}" for j in range(i)], ndeps))
        tasks.append(
            Task(
                task_id=f"t{i}",
                resource=f"r{rng.randrange(num_resources)}",
                duration=rng.choice(
                    [0.0, float(rng.randint(1, 4)), rng.uniform(0.1, 9.0)]
                ),
                deps=deps,
                priority=(rng.randint(0, 3), rng.randint(0, 3)),
            )
        )
    return tasks


def test_randomized_dag_equivalence():
    """Seeded random DAG stress: mixed resources, priorities, zero
    durations, fan-in/fan-out dependencies."""
    rng = random.Random(1234)
    for _ in range(150):
        assert_equivalent(_random_dag(rng, rng.randint(1, 50)), 1)


def test_randomized_dag_equivalence_large():
    """~10x larger seeded DAGs — tractable because the reference engine
    keeps an incremental ready-set (cached per-resource candidates)
    instead of rescanning every ready task per commit."""
    rng = random.Random(99)
    for _ in range(8):
        n = rng.randint(300, 500)
        tasks = _random_dag(rng, n, num_resources=8, max_deps=4)
        assert_equivalent(tasks, 1)
