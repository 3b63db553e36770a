"""Pipeline-bubble identification (§5).

A bubble is a tuple ``(start time, end time, idle devices)`` — a maximal
time span over which the *same* set of devices is idle.  Bubbles shorter
than 10 ms are discarded (the cost of staging inputs/outputs for filling
exceeds the gain, paper footnote 3).

Extraction is a single sweep-line over idle-span *edge events*: every
span start adds its device to an incrementally maintained idle set,
every span end removes it, and a bubble closes whenever the set changes.
Sorting the ``E`` edges dominates — O(E log E) — versus the quadratic
breakpoint scan it replaced (the oracle in ``tests/oracles/``), which
rescans every device's span list for every breakpoint segment.

For filling purposes, synchronisation (all-reduce) intervals count as
*available* — the non-trainable part may overlap gradient sync
(Fig. 9's ``N(F)``) — while for bubble-ratio reporting they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import FillingError
from ..schedule.timeline import Timeline

#: paper footnote 3: only bubbles longer than 10 ms are worth filling
DEFAULT_MIN_BUBBLE_MS = 10.0


@dataclass(frozen=True)
class Bubble:
    """A maximal constant-idle-set span of the pipeline timeline.

    ``devices`` are logical device indices; ``weight`` is the number of
    physical devices they represent (sum of stage replication factors)
    — the ``d`` used when running non-trainable layers data-parallel in
    the bubble.
    """

    start: float
    end: float
    devices: tuple[int, ...]
    weight: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FillingError("bubble must have positive duration")
        if not self.devices:
            raise FillingError("bubble must have at least one idle device")
        if self.weight <= 0:
            raise FillingError("bubble weight must be positive")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def device_time(self) -> float:
        """Idle device-time of the bubble (``T_b * d_b``)."""
        return self.duration * self.weight


def extract_bubbles(
    timeline: Timeline,
    *,
    min_duration_ms: float = DEFAULT_MIN_BUBBLE_MS,
    include_sync_spans: bool = True,
    horizon: float | None = None,
) -> list[Bubble]:
    """Identify bubbles in a simulated timeline, chronologically.

    ``include_sync_spans=True`` treats gradient-sync intervals as
    available time (the filling view); ``False`` gives the strict-idle
    view used for bubble-ratio metrics.
    """
    if min_duration_ms < 0:
        raise FillingError("min_duration_ms must be non-negative")
    horizon = timeline.makespan if horizon is None else horizon
    if horizon <= 0:
        return []

    # Edge events: +device at a span start, -device at its end.  A
    # device's idle spans are disjoint and non-touching, so pairing
    # events per device is unambiguous; at one timestamp, removals run
    # before additions (the departing device is idle up to ``t``, the
    # arriving one from ``t``) — encoded in the sort key.
    events: list[tuple[float, int, int]] = []
    for d in range(timeline.num_devices):
        for sp in timeline.idle_spans(
            d, horizon, include_sync_as_busy=not include_sync_spans
        ):
            events.append((sp.start, 1, d))
            events.append((sp.end, 0, d))
    if not events:
        return []
    events.sort()

    bubbles: list[Bubble] = []
    idle: set[int] = set()
    cur_set: tuple[int, ...] = ()
    cur_start = 0.0
    i, n = 0, len(events)
    while i < n:
        t = events[i][0]
        while i < n and events[i][0] == t:
            _, kind, d = events[i]
            if kind:
                idle.add(d)
            else:
                idle.discard(d)
            i += 1
        s = tuple(sorted(idle))
        if s != cur_set:
            if cur_set and t > cur_start:
                bubbles.append(_mk_bubble(timeline, cur_start, t, cur_set))
            cur_set = s
            cur_start = t
    if cur_set and horizon > cur_start:  # pragma: no cover - spans end <= horizon
        bubbles.append(_mk_bubble(timeline, cur_start, horizon, cur_set))

    return [b for b in bubbles if b.duration >= min_duration_ms]


def _mk_bubble(
    timeline: Timeline, start: float, end: float, devices: tuple[int, ...]
) -> Bubble:
    weight = sum(timeline.device_weights[d] for d in devices)
    return Bubble(start=start, end=end, devices=devices, weight=weight)


def total_bubble_device_time(bubbles: Sequence[Bubble]) -> float:
    """Sum of ``T_b * d_b`` over bubbles."""
    return sum(b.device_time for b in bubbles)


def longest_bubble(bubbles: Sequence[Bubble]) -> Bubble | None:
    """The bubble with the longest duration (Fig. 6's comparison line)."""
    return max(bubbles, key=lambda b: b.duration, default=None)
