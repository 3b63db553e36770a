"""Property-based invariants of every registered schedule family.

For arbitrary stage chains and micro-batch counts, each family's task
graph must

* pass :func:`validate_task_graph` (unique ids, resolvable deps),
* conserve per-device compute: the FORWARD durations on a device sum
  to ``M *`` the hosted stages' ``fwd_ms`` and the BACKWARD (+ the
  split families' BACKWARD_W) durations to ``M * bwd_ms`` — no family
  may invent, drop or migrate compute, whatever its bubble structure,
* simulate identically on the event-driven engine and the full-rescan
  reference oracle (same intervals, same makespan).

The device->stages map is family-specific: one stage per device for
the linear families, co-located down/up pairs for ``bidirectional``
and the round-robin chunk placement for ``interleaved``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule import (
    SCHEDULE_FAMILIES,
    StageExec,
    TaskKind,
    get_family,
    simulate,
    validate_task_graph,
)
from tests.oracles import simulate_reference

COMPUTE_FWD = (TaskKind.FORWARD,)
COMPUTE_BWD = (TaskKind.BACKWARD, TaskKind.BACKWARD_W)

positive_ms = st.floats(0.5, 25.0, allow_nan=False, allow_infinity=False)
small_ms = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def family_case(draw):
    """(family, down chain, up chain | None, M, devices, sc); a chunked
    family gets 2 or 3 chunks per device."""
    family = get_family(draw(st.sampled_from(sorted(SCHEDULE_FAMILIES))))
    positions = draw(st.integers(2, 4))
    if family.virtual_stages > 1:
        family.virtual_stages = draw(st.integers(2, 3))
    S = positions * family.virtual_stages

    def chain():
        stages = []
        for i in range(S):
            bwd = draw(positive_ms)
            kwargs = {}
            if family.splits_backward:
                # Arbitrary B/W split; StageExec derives B = bwd - W.
                kwargs["bwd_w_ms"] = draw(st.floats(0.0, 1.0)) * bwd
            stages.append(
                StageExec(
                    index=i,
                    fwd_ms=draw(positive_ms),
                    bwd_ms=bwd,
                    send_fwd_ms=draw(small_ms),
                    send_bwd_ms=draw(small_ms),
                    sync_ms=draw(small_ms),
                    **kwargs,
                )
            )
        return stages

    down = chain()
    up = chain() if family.cascaded else None
    M = draw(st.integers(1, 6))
    sc = draw(st.booleans())
    return family, down, up, M, positions, sc


def _build(family, down, up, M, sc):
    if family.cascaded:
        return family.build(down, M, up=up)
    return family.build(
        down, M, self_conditioning=sc, feedback_ms=1.5 if sc else 0.0
    )


def _hosted_stages(family, down, up, positions):
    """device -> list of StageExec hosted there, per family placement."""
    if family.cascaded:
        S = len(down)
        return {d: [down[d], up[S - 1 - d]] for d in range(S)}
    if family.virtual_stages > 1:
        return {
            d: [down[c] for c in range(d, len(down), positions)]
            for d in range(positions)
        }
    return {d: [down[d]] for d in range(len(down))}


def _device_compute(tasks, kinds):
    out: dict[int, float] = {}
    for t in tasks:
        if t.kind in kinds and t.device is not None:
            out[t.device] = out.get(t.device, 0.0) + t.duration
    return out


@given(family_case())
@settings(max_examples=60, deadline=None)
def test_family_graph_valid_and_conserves_compute(case):
    family, down, up, M, positions, sc = case
    tasks = _build(family, down, up, M, sc)

    # Referential integrity of the task graph.
    validate_task_graph(list(tasks))

    hosted = _hosted_stages(family, down, up, positions)
    fwd = _device_compute(tasks, COMPUTE_FWD)
    bwd = _device_compute(tasks, COMPUTE_BWD)
    for dev, stages in hosted.items():
        want_fwd = M * sum(s.fwd_ms for s in stages)
        want_bwd = M * sum(s.bwd_ms for s in stages)
        assert fwd.get(dev, 0.0) == pytest.approx(want_fwd, rel=1e-9)
        assert bwd.get(dev, 0.0) == pytest.approx(want_bwd, rel=1e-9)


@given(family_case())
@settings(max_examples=60, deadline=None)
def test_family_simulates_identically_on_both_engines(case):
    family, down, up, M, positions, sc = case
    tasks = _build(family, down, up, M, sc)
    fast = simulate(tasks, positions)
    ref = simulate_reference(tasks, positions)
    keys = lambda tl: [  # noqa: E731
        (iv.start, iv.end, iv.task.task_id, iv.task.resource)
        for iv in tl.intervals
    ]
    assert keys(fast) == keys(ref)
    assert fast.makespan == ref.makespan


def test_zerobubble_split_reconstructs_backward_exactly():
    """The W/B split is duration-exact, not just approximate: every
    stage's B + W task durations equal M * bwd_ms as floats when the
    default even split is used (x/2 + x/2 == x in IEEE arithmetic)."""
    stages = [StageExec(index=i, fwd_ms=3.0 + i, bwd_ms=7.0 + i) for i in range(3)]
    M = 4
    tasks = get_family("zerobubble").build(stages, M)
    per_dev = _device_compute(tasks, COMPUTE_BWD)
    for i, s in enumerate(stages):
        assert per_dev[i] == M * s.bwd_ms
    w_total = sum(t.duration for t in tasks if t.kind == TaskKind.BACKWARD_W)
    assert w_total > 0.0
