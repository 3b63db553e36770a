"""Execution timelines: the simulator's output.

A :class:`Timeline` is a set of executed intervals (resource, start, end,
task).  It answers the questions the rest of the system asks:

* iteration makespan;
* per-device busy / idle / sync intervals;
* pipeline-bubble device-time and bubble ratio (the Fig. 4 / Fig. 14
  metric: ``sum_b T_b * d_b / (iteration_time * total_devices)``);
* an ASCII Gantt rendering for examples and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import SimulationError
from ..units import is_int, positive_int
from .tasks import COMPUTE_KINDS, Task, TaskKind


@dataclass(frozen=True)
class Interval:
    """One executed task occurrence."""

    start: float
    end: float
    task: Task

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"interval for {self.task.task_id} ends before it starts"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IdleSpan:
    """An idle gap on one device."""

    device: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Executed intervals plus device metadata.

    Parameters
    ----------
    intervals:
        All executed intervals.
    num_devices:
        Number of logical devices (pipeline stages' hosts).
    device_weights:
        Physical devices represented by each logical device (stage
        replication factor); defaults to 1 each.
    """

    def __init__(
        self,
        intervals: Sequence[Interval],
        num_devices: int,
        device_weights: Mapping[int, int] | None = None,
    ):
        if num_devices <= 0:
            raise SimulationError("num_devices must be positive")
        self.intervals = sorted(intervals, key=lambda iv: (iv.start, iv.end))
        self.num_devices = num_devices
        self.device_weights = dict(device_weights or {})
        for d, w in self.device_weights.items():
            if not (is_int(d) and 0 <= d < num_devices and positive_int(w)):
                raise SimulationError(
                    f"device {d!r} has weight {w!r}: a weight is an integer "
                    f">= 1 of one of the {num_devices} simulated devices"
                )
        for d in range(num_devices):
            self.device_weights.setdefault(d, 1)
        # Lazy caches; the interval list is treated as immutable after
        # construction (planner code shares Timeline objects).
        self._makespan: float | None = None
        self._by_device: dict[int | None, list[Interval]] | None = None

    # -- aggregate times -------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End time of the last interval (iteration time)."""
        if self._makespan is None:
            if not self.intervals:
                self._makespan = 0.0
            else:
                self._makespan = max(iv.end for iv in self.intervals)
        return self._makespan

    @property
    def total_physical_devices(self) -> int:
        """Sum of device weights (physical device count)."""
        return sum(self.device_weights.values())

    # -- per-device views --------------------------------------------------------

    def device_intervals(
        self, device: int, kinds: Iterable[TaskKind] | None = None
    ) -> list[Interval]:
        """Intervals attributed to one device, optionally filtered by kind."""
        if self._by_device is None:
            by_device: dict[int | None, list[Interval]] = {}
            for iv in self.intervals:
                by_device.setdefault(iv.task.device, []).append(iv)
            self._by_device = by_device
        device_ivs = self._by_device.get(device, [])
        kinds_set = set(kinds) if kinds is not None else None
        if kinds_set is None:
            return list(device_ivs)
        return [iv for iv in device_ivs if iv.task.kind in kinds_set]

    def busy_spans(self, device: int, kinds: Iterable[TaskKind]) -> list[tuple[float, float]]:
        """Merged (start, end) spans where the device runs tasks of ``kinds``."""
        ivs = self.device_intervals(device, kinds)
        spans: list[tuple[float, float]] = []
        for iv in sorted(ivs, key=lambda v: v.start):
            if iv.duration == 0:
                continue
            if spans and iv.start <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], iv.end))
            else:
                spans.append((iv.start, iv.end))
        return spans

    def idle_spans(
        self,
        device: int,
        horizon: float | None = None,
        busy_kinds: Iterable[TaskKind] = COMPUTE_KINDS,
        include_sync_as_busy: bool = True,
    ) -> list[IdleSpan]:
        """Idle gaps of one device over ``[0, horizon]``.

        By default sync (all-reduce) intervals count as busy: they are
        not pipeline bubbles in the paper's metric.  Pass
        ``include_sync_as_busy=False`` to get the *fillable* spans used
        by the bubble-filling algorithm, which may overlap NT compute
        with synchronisation (paper Fig. 9).
        """
        horizon = self.makespan if horizon is None else horizon
        kinds = set(busy_kinds)
        if include_sync_as_busy:
            kinds.add(TaskKind.SYNC)
        spans = self.busy_spans(device, kinds)
        idles: list[IdleSpan] = []
        cursor = 0.0
        for s, e in spans:
            if s > cursor:
                idles.append(IdleSpan(device, cursor, min(s, horizon)))
            cursor = max(cursor, e)
            if cursor >= horizon:
                break
        if cursor < horizon:
            idles.append(IdleSpan(device, cursor, horizon))
        return [sp for sp in idles if sp.duration > 0]

    # -- bubble metrics -------------------------------------------------------------

    def bubble_device_time(self, horizon: float | None = None) -> float:
        """Total idle device-time, weighted by stage replication."""
        horizon = self.makespan if horizon is None else horizon
        total = 0.0
        for d in range(self.num_devices):
            idle = sum(sp.duration for sp in self.idle_spans(d, horizon))
            total += idle * self.device_weights[d]
        return total

    def bubble_ratio(self, horizon: float | None = None) -> float:
        """The paper's bubble ratio:
        ``sum_b T_b * d_b / (iteration_time * total_num_devices)``."""
        horizon = self.makespan if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return self.bubble_device_time(horizon) / (
            horizon * self.total_physical_devices
        )

    def compute_device_time(self) -> float:
        """Total busy compute device-time, weighted by replication."""
        total = 0.0
        for d in range(self.num_devices):
            busy = sum(e - s for s, e in self.busy_spans(d, COMPUTE_KINDS))
            total += busy * self.device_weights[d]
        return total

    # -- rendering ----------------------------------------------------------------

    _GLYPHS = {
        TaskKind.FORWARD: "F",
        TaskKind.SC_FORWARD: "s",
        TaskKind.BACKWARD: "B",
        TaskKind.BACKWARD_W: "W",
        TaskKind.NT_FORWARD: "n",
        TaskKind.SYNC: "=",
        TaskKind.COMM: "-",
        TaskKind.OTHER: "?",
    }

    def to_ascii(self, width: int = 100) -> str:
        """Render the timeline as an ASCII Gantt chart.

        Each row is a device; each column a time slice; letters identify
        task kinds (F forward, B backward/grad-input, W grad-weight,
        s self-conditioning forward, n non-trainable forward, = sync,
        . idle).
        """
        span = self.makespan
        if span <= 0:
            return "(empty timeline)"
        scale = width / span
        rows = []
        for d in range(self.num_devices):
            row = ["."] * width
            for iv in self.device_intervals(d):
                if iv.duration == 0:
                    continue
                a = int(iv.start * scale)
                b = max(int(iv.end * scale), a + 1)
                glyph = self._GLYPHS.get(iv.task.kind, "?")
                for i in range(a, min(b, width)):
                    row[i] = glyph
            label = f"dev{d}(x{self.device_weights[d]})"
            rows.append(f"{label:>10} |{''.join(row)}|")
        header = f"{'':>10}  0{'':{width - 10}}{span:8.1f} ms"
        return "\n".join(rows + [header])
