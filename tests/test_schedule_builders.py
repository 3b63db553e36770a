"""1F1B / GPipe / bidirectional schedule-builder tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.schedule import (
    StageExec,
    TaskKind,
    build_1f1b,
    get_family,
    simulate,
    validate_stages,
)


def _stages(S, f=10.0, b=20.0, comm=0.0, sync=0.0):
    return [
        StageExec(index=i, fwd_ms=f, bwd_ms=b, send_fwd_ms=comm,
                  send_bwd_ms=comm, sync_ms=sync)
        for i in range(S)
    ]


def _sim(tasks, S):
    return simulate(tasks, S)


def test_stage_exec_validation():
    with pytest.raises(ConfigurationError):
        StageExec(index=-1, fwd_ms=1, bwd_ms=1)
    with pytest.raises(ConfigurationError):
        StageExec(index=0, fwd_ms=-1, bwd_ms=1)
    with pytest.raises(ConfigurationError):
        StageExec(index=0, fwd_ms=1, bwd_ms=1, replicas=0)
    with pytest.raises(ConfigurationError):
        validate_stages([])
    with pytest.raises(ConfigurationError):
        validate_stages([StageExec(index=1, fwd_ms=1, bwd_ms=1)])
    s = StageExec(index=0, fwd_ms=2, bwd_ms=4)
    assert s.sc_fwd_ms == 2  # defaults to fwd
    # Every duration must be finite: a NaN stage once reached the
    # simulator's dispatch assert, an infinite one an infinite makespan.
    for name in ("fwd_ms", "bwd_ms", "send_fwd_ms", "send_bwd_ms",
                 "sync_ms", "sc_fwd_ms", "bwd_b_ms", "bwd_w_ms"):
        for bad in (math.nan, math.inf):
            kwargs = {"fwd_ms": 1.0, "bwd_ms": 2.0, name: bad}
            with pytest.raises(ConfigurationError, match=name):
                StageExec(index=0, **kwargs)


def test_1f1b_makespan_matches_theory():
    """Balanced stages, no comm: span = (M + S - 1) * (f + b)."""
    S, M, f, b = 4, 4, 10.0, 20.0
    tl = _sim(build_1f1b(_stages(S, f, b), M), S)
    assert tl.makespan == pytest.approx((M + S - 1) * (f + b))


def test_1f1b_bubble_ratio_matches_theory():
    S, M = 4, 4
    tl = _sim(build_1f1b(_stages(S), M), S)
    assert tl.bubble_ratio() == pytest.approx((S - 1) / (M + S - 1))


def test_1f1b_task_counts():
    S, M = 3, 2
    tasks = build_1f1b(_stages(S), M)
    kinds = {}
    for t in tasks:
        kinds[t.kind] = kinds.get(t.kind, 0) + 1
    assert kinds[TaskKind.FORWARD] == S * M
    assert kinds[TaskKind.BACKWARD] == S * M
    assert kinds[TaskKind.COMM] == 2 * (S - 1) * M
    assert kinds[TaskKind.SYNC] == S


def test_1f1b_memory_window():
    """Stage 0 may have at most S in-flight micro-batches: with M >> S
    its forwards are throttled by completed backwards."""
    S, M = 2, 6
    tl = _sim(build_1f1b(_stages(S), M), S)
    fwd_starts = sorted(
        iv.start
        for iv in tl.intervals
        if iv.task.kind == TaskKind.FORWARD and iv.task.meta["stage"] == 0
    )
    bwd_ends = sorted(
        iv.end
        for iv in tl.intervals
        if iv.task.kind == TaskKind.BACKWARD and iv.task.meta["stage"] == 0
    )
    # The (S+1)-th forward cannot start before the 1st backward ends.
    assert fwd_starts[S] >= bwd_ends[0]


def test_gpipe_all_forwards_before_backwards():
    S, M = 2, 4
    tl = _sim(get_family("gpipe").build(_stages(S), M), S)
    for dev in range(S):
        fwd_end = max(
            iv.end for iv in tl.intervals
            if iv.task.kind == TaskKind.FORWARD and iv.task.device == dev
        )
        bwd_start = min(
            iv.start for iv in tl.intervals
            if iv.task.kind == TaskKind.BACKWARD and iv.task.device == dev
        )
        assert bwd_start >= fwd_end


ms = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def chain_case(draw):
    """(stages, M, self-conditioning, feedback_ms) with random compute,
    comm and sync times (zero included)."""
    S = draw(st.integers(1, 6))
    stages = [
        StageExec(
            index=i,
            fwd_ms=draw(ms),
            bwd_ms=draw(ms),
            sc_fwd_ms=draw(ms),
            send_fwd_ms=draw(ms),
            send_bwd_ms=draw(ms),
            sync_ms=draw(ms),
        )
        for i in range(S)
    ]
    sc = draw(st.booleans())
    return stages, draw(st.integers(1, 8)), sc, draw(ms) if sc else 0.0


_FORWARD_KINDS = (TaskKind.FORWARD, TaskKind.SC_FORWARD)


def _phase(task):
    """0 forward wave (SC or main, and their transfers), 1 backward
    wave (and gradient transfers), 2 sync."""
    if task.kind in _FORWARD_KINDS:
        return 0
    if task.kind is TaskKind.COMM:
        return 1 if task.meta["dir"] == "bwd" else 0
    if task.kind is TaskKind.BACKWARD:
        return 1
    assert task.kind is TaskKind.SYNC
    return 2


@given(chain_case())
@settings(max_examples=80, deadline=None)
def test_forwards_first_graph_has_no_window_and_phase_ordered_priorities(case):
    """GPipe's graph (build_1f1b with forwards_first=True): no forward
    depends on a backward, even transitively, and every forward-phase
    priority sorts before every backward-phase one, which sorts before
    every sync.  The 1F1B graph of the same chain keeps its in-flight
    window: fwd(s, m) waits on bwd(s, m - (S - s))."""
    stages, M, sc, feedback = case
    S = len(stages)
    tasks = get_family("gpipe").build(
        stages, M, self_conditioning=sc, feedback_ms=feedback
    )
    by_id = {t.task_id: t for t in tasks}

    reaches_backward: dict[str, bool] = {}

    def has_backward_ancestor(tid):
        if tid not in reaches_backward:
            reaches_backward[tid] = any(
                by_id[d].kind is TaskKind.BACKWARD or has_backward_ancestor(d)
                for d in by_id[tid].deps
            )
        return reaches_backward[tid]

    for t in tasks:
        if t.kind in _FORWARD_KINDS:
            assert not has_backward_ancestor(t.task_id), t.task_id

    by_phase = {0: [], 1: [], 2: []}
    for t in tasks:
        by_phase[_phase(t)].append(t.priority)
    assert len(by_phase[2]) == S
    assert max(by_phase[0]) < min(by_phase[1])
    assert max(by_phase[1]) < min(by_phase[2])

    onef1b = {
        t.task_id: t
        for t in build_1f1b(stages, M, self_conditioning=sc, feedback_ms=feedback)
    }
    for s in range(S):
        for m in range(S - s, M):
            assert f"bwd[{s},{m - (S - s)}]" in onef1b[f"fwd[{s},{m}]"].deps


def test_gpipe_vs_1f1b_same_span_when_balanced():
    """With balanced stages and no comm, GPipe and 1F1B have the same
    critical path (they differ in memory, not time)."""
    S, M = 4, 4
    a = _sim(build_1f1b(_stages(S), M), S).makespan
    g = _sim(get_family("gpipe").build(_stages(S), M), S).makespan
    assert a == pytest.approx(g)


def test_self_conditioning_adds_forward_wave():
    S, M = 2, 2
    plain = build_1f1b(_stages(S), M)
    sc = build_1f1b(_stages(S), M, self_conditioning=True, feedback_ms=1.0)
    sc_kinds = [t for t in sc if t.kind == TaskKind.SC_FORWARD]
    assert len(sc_kinds) == S * M
    assert len(sc) > len(plain)
    tl_sc = _sim(sc, S)
    tl_plain = _sim(plain, S)
    assert tl_sc.makespan > tl_plain.makespan


def test_self_conditioning_feedback_ordering():
    """The main forward of a micro-batch on stage 0 starts only after
    the SC wave reaches the last stage and feeds back."""
    S, M = 3, 1
    tl = _sim(build_1f1b(_stages(S), M, self_conditioning=True,
                         feedback_ms=5.0), S)
    sc_last_end = max(
        iv.end for iv in tl.intervals if iv.task.kind == TaskKind.SC_FORWARD
        and iv.task.meta["stage"] == S - 1
    )
    main_first = min(
        iv.start for iv in tl.intervals if iv.task.kind == TaskKind.FORWARD
        and iv.task.meta["stage"] == 0
    )
    assert main_first >= sc_last_end + 5.0


def test_sync_runs_after_last_backward():
    S, M = 2, 2
    tl = _sim(build_1f1b(_stages(S, sync=7.0), M), S)
    for dev in range(S):
        syncs = [iv for iv in tl.intervals if iv.task.kind == TaskKind.SYNC
                 and iv.task.device == dev]
        assert len(syncs) == 1
        last_bwd = max(
            iv.end for iv in tl.intervals
            if iv.task.kind == TaskKind.BACKWARD and iv.task.device == dev
        )
        assert syncs[0].start >= last_bwd
    assert tl.makespan >= 7.0 + (M + S - 1) * 30.0


def test_bidirectional_combines_two_pipelines():
    S, M = 2, 2
    tasks = get_family("bidirectional").build(
        _stages(S, f=10, b=20), M, up=_stages(S, f=10, b=20)
    )
    tl = _sim(tasks, S)
    # Both pipelines' work lands on both devices.
    for dev in range(S):
        ids = {iv.task.task_id for iv in tl.intervals if iv.task.device == dev}
        assert any(i.startswith("dn/") for i in ids)
        assert any(i.startswith("up/") for i in ids)
    # Utilisation beats a single unidirectional pipeline's.
    single = _sim(build_1f1b(_stages(S), M), S)
    assert tl.bubble_ratio() < single.bubble_ratio()


def test_bidirectional_stage_count_mismatch():
    with pytest.raises(ConfigurationError):
        get_family("bidirectional").build(_stages(2), 2, up=_stages(3))


def test_bidirectional_colocated_replica_mismatch():
    """Chain position i hosts down stage i and up stage S-1-i on the
    same devices, so their replica counts must agree."""
    down = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=2),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=1),
    ]
    up_ok = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=1),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=2),
    ]
    get_family("bidirectional").build(down, 2, up=up_ok)  # mirrored counts: fine
    up_bad = [
        StageExec(index=0, fwd_ms=1, bwd_ms=2, replicas=2),
        StageExec(index=1, fwd_ms=1, bwd_ms=2, replicas=1),
    ]
    with pytest.raises(ConfigurationError, match="co-located"):
        get_family("bidirectional").build(down, 2, up=up_bad)


def test_comm_scale_doubles_transfers():
    S, M = 2, 1
    t1 = build_1f1b(_stages(S, comm=4.0), M, comm_scale=1.0)
    t2 = build_1f1b(_stages(S, comm=4.0), M, comm_scale=2.0)
    c1 = next(t for t in t1 if t.kind == TaskKind.COMM)
    c2 = next(t for t in t2 if t.kind == TaskKind.COMM)
    assert c2.duration == 2 * c1.duration


def test_invalid_micro_batches():
    with pytest.raises(ConfigurationError):
        build_1f1b(_stages(2), 0)
    with pytest.raises(ConfigurationError):
        get_family("gpipe").build(_stages(2), -1)
