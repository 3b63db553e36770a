"""Oracle of the sweep-line bubble extraction (§5)."""

from __future__ import annotations

from repro.core.bubbles import DEFAULT_MIN_BUBBLE_MS, Bubble, _mk_bubble
from repro.errors import FillingError
from repro.schedule.timeline import Timeline


def extract_bubbles_reference(
    timeline: Timeline,
    *,
    min_duration_ms: float = DEFAULT_MIN_BUBBLE_MS,
    include_sync_spans: bool = True,
    horizon: float | None = None,
) -> list[Bubble]:
    """The original breakpoint-scan extraction, kept as the semantic
    oracle for the sweep-line (O(segments x devices x spans)): every
    span edge is a breakpoint, and each inter-breakpoint segment rescans
    every device's span list to recover the idle set at its midpoint.
    """
    if min_duration_ms < 0:
        raise FillingError("min_duration_ms must be non-negative")
    horizon = timeline.makespan if horizon is None else horizon
    if horizon <= 0:
        return []

    idle_by_device = {
        d: timeline.idle_spans(
            d, horizon, include_sync_as_busy=not include_sync_spans
        )
        for d in range(timeline.num_devices)
    }

    # Breakpoints at every idle-span edge.
    edges = {0.0, horizon}
    for spans in idle_by_device.values():
        for sp in spans:
            edges.add(sp.start)
            edges.add(sp.end)
    points = sorted(edges)

    def idle_set_at(t0: float, t1: float) -> tuple[int, ...]:
        mid = (t0 + t1) / 2.0
        out = []
        for d, spans in idle_by_device.items():
            for sp in spans:
                if sp.start <= mid < sp.end:
                    out.append(d)
                    break
        return tuple(out)

    bubbles: list[Bubble] = []
    cur_set: tuple[int, ...] = ()
    cur_start = 0.0
    for i in range(len(points) - 1):
        t0, t1 = points[i], points[i + 1]
        if t1 <= t0:
            continue
        s = idle_set_at(t0, t1)
        if s != cur_set:
            if cur_set:
                bubbles.append(_mk_bubble(timeline, cur_start, t0, cur_set))
            cur_set = s
            cur_start = t0
    if cur_set:
        bubbles.append(_mk_bubble(timeline, cur_start, points[-1], cur_set))

    return [b for b in bubbles if b.duration >= min_duration_ms]
