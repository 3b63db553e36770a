"""The closed-form makespan floor of every schedule family.

``family.floor(...)`` takes exactly ``family.build(...)``'s arguments
and must never exceed ``simulate(family.build(...)).makespan``: the
planner's bound ladder skips the simulation of every configuration
whose floor cannot win, so an unsound floor would change plans.  The
property compares the two as plain floats, with no tolerance beyond the
``FLOOR_MARGIN`` the floor already gives up; two pinned chains show the
bound exactly tight where one micro-batch's path is the makespan, and
the margin needed where a device term rounds above it.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.schedule.onef1b as onef1b
from repro.errors import ConfigurationError
from repro.schedule import (
    FLOOR_MARGIN,
    SCHEDULE_FAMILIES,
    StageExec,
    get_family,
    simulate,
)

#: compute times, zero included
compute_ms = st.one_of(st.just(0.0), st.floats(0.0, 25.0))
#: comm, sync and feedback times: zero or not
comm_ms = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


@st.composite
def chain_case(draw):
    """``(family, stages, build keywords, M)`` of one fuzzed chain: S
    1-6 stages (chunks for ``interleaved``, on a divisor of S devices),
    M 1-16, self-conditioning on or off, 1-3 replicas per position
    (co-located bidirectional stages and chunks agree)."""
    family = get_family(draw(st.sampled_from(sorted(SCHEDULE_FAMILIES))))
    chunked = family.virtual_stages > 1
    S = draw(st.integers(1, 6))
    if chunked:
        # Chunks that share a device share its replica count.
        devices = draw(
            st.sampled_from([d for d in range(1, S + 1) if S % d == 0])
        )
        family.virtual_stages = S // devices
        per_device = draw(
            st.lists(st.integers(1, 3), min_size=devices, max_size=devices)
        )
        replicas = [per_device[c % devices] for c in range(S)]
    else:
        replicas = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))

    def chain(replicas):
        stages = []
        for i, r in enumerate(replicas):
            bwd = draw(compute_ms)
            extra = {}
            if draw(st.booleans()):
                extra["sc_fwd_ms"] = draw(compute_ms)
            if family.splits_backward:
                extra["bwd_w_ms"] = draw(st.floats(0.0, 1.0)) * bwd
            stages.append(
                StageExec(
                    index=i,
                    fwd_ms=draw(compute_ms),
                    bwd_ms=bwd,
                    send_fwd_ms=draw(comm_ms),
                    send_bwd_ms=draw(comm_ms),
                    sync_ms=draw(comm_ms),
                    replicas=r,
                    **extra,
                )
            )
        return stages

    stages = chain(replicas)
    sc = draw(st.booleans())
    kwargs = {
        "self_conditioning": sc,
        "feedback_ms": draw(comm_ms) if sc else 0.0,
    }
    if family.cascaded:
        kwargs["up"] = chain(replicas[::-1])
    return family, stages, kwargs, draw(st.integers(1, 16))


def _makespan(family, stages, kwargs, M):
    tasks = family.build(stages, M, **kwargs)
    devices = len(stages) // family.virtual_stages
    return simulate(tasks, devices).makespan


def _chain(*times, **fields):
    """A chain of ``(fwd, bwd)`` stages with the given common fields."""
    return [
        StageExec(index=i, fwd_ms=f, bwd_ms=b, **fields)
        for i, (f, b) in enumerate(times)
    ]


#: a 2-stage self-conditioned chain at M = 1: the makespan is the SC
#: wave, the feedback, the forward wave, the backward wave and stage 0's
#: sync, added in the order the floor's path term adds them
TIGHT = (get_family("onef1b"), _chain((3.0, 5.0), (2.5, 4.0), send_fwd_ms=0.7,
                          send_bwd_ms=0.3, sync_ms=1.1),
         {"self_conditioning": True, "feedback_ms": 0.4}, 1)


@settings(max_examples=300, deadline=None)
@given(chain_case())
@example(TIGHT)
def test_floor_never_exceeds_the_simulated_makespan(case):
    family, stages, kwargs, M = case
    floor = family.floor(stages, M, **kwargs)
    assert 0.0 <= floor <= _makespan(family, stages, kwargs, M), case


def test_floor_is_exactly_tight_on_a_single_path(monkeypatch):
    """One micro-batch through a chain with nothing to wait for: the
    unmargined floor equals the makespan bit for bit, so the floor is
    the makespan less the margin."""
    family, stages, kwargs, M = TIGHT
    makespan = _makespan(*TIGHT)
    assert family.floor(stages, M, **kwargs) == makespan * (1.0 - FLOOR_MARGIN)
    monkeypatch.setattr(onef1b, "FLOOR_MARGIN", 0.0)
    assert family.floor(stages, M, **kwargs) == makespan


def test_margin_covers_rounding_of_the_device_terms(monkeypatch):
    """One stage, fwd = bwd = 0.1 ms, M = 3: the simulator adds six
    0.1 ms tasks one by one (0.6), the device term takes 3 x 0.2
    (0.6000000000000001), so only the margin keeps the floor sound."""
    family = get_family("onef1b")
    stages = _chain((0.1, 0.1))
    makespan = _makespan(family, stages, {}, 3)
    assert makespan == 0.6
    assert family.floor(stages, 3) <= makespan
    monkeypatch.setattr(onef1b, "FLOOR_MARGIN", 0.0)
    assert family.floor(stages, 3) > makespan


def test_floor_terms_by_hand():
    """Each kind of term wins somewhere, with the values the formula
    gives (no margin in the comparison: durations are dyadic)."""
    ones = _chain((1.0, 2.0), (1.0, 2.0))
    scale = 1.0 - FLOOR_MARGIN
    # Device 0: head 0 + 4 x 3 + tail 0 = 12; device 1: 1 + 12 + 2 = 15.
    assert get_family("onef1b").floor(ones, 4) == 15.0 * scale
    assert _makespan(get_family("onef1b"), ones, {}, 4) == 15.0
    # A 20 ms sync of stage 0 ends every device's tail: device 1's
    # head 1 + 2 x 3 + tail (bwd 2 + sync 20) = 29 beats stage 0's path
    # (fwd 1 + 1, bwd 2 + 2, sync 20 = 26), and is the makespan.
    synced = [StageExec(index=0, fwd_ms=1.0, bwd_ms=2.0, sync_ms=20.0), ones[1]]
    assert get_family("gpipe").floor(synced, 2) == 29.0 * scale
    assert _makespan(get_family("gpipe"), synced, {}, 2) == 29.0
    # Split backward: B = W = 1; device 1's tail is its sync (0), not
    # the B path back to stage 0: 1 + 2 x 3 + 0 = 7; stage 0's path is
    # 1 + 1 + 1 + 1 + W 1 = 5.
    assert get_family("zerobubble").floor(ones, 2) == 7.0 * scale


def test_floor_rejects_what_build_rejects():
    stages = _chain((1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ConfigurationError, match="up-pipeline"):
        get_family("bidirectional").floor(stages, 2)
    with pytest.raises(ConfigurationError, match="single backbone"):
        get_family("onef1b").floor(stages, 2, up=stages)
    with pytest.raises(ConfigurationError, match="whole number of chunks"):
        get_family("interleaved").floor(stages[:1], 2)
    with pytest.raises(ConfigurationError, match="micro-batches"):
        get_family("gpipe").floor(stages, 0)
