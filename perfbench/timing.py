"""Speed-normalised timing of one operation.

The vCPUs of a shared host switch, every few seconds to tens of
seconds, between speed modes that differ by up to 1.5x (README.md,
"Steadiness").  A wall time alone then says more about the mode a run
happened to get than about the planner.  So a fixed reference loop is
timed just before and just after every timed operation, and every
``TICK_S`` while it runs (from a ``SIGALRM`` handler, on the same
thread; the handler's time is taken out of the operation's).
:attr:`Sample.seconds` scales the operation's wall time by the loop's
nominal time over its mean measured one: the seconds the operation
would take at the host's nominal speed.  The reference loop lives here,
not in ``src/``, so no change to the planner can move it.

The garbage collector is off inside every timed region, as in
``timeit``: a collection's cost depends on the whole heap, which the
benchmark's own bookkeeping grows, not on the operation timed.  Young
objects are collected right after each operation, outside its timing,
and the whole heap every ``FULL_GC_EVERY_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, NamedTuple

import numpy as np

#: the reference loop's wall time at the nominal speed of a 2-vCPU
#: Xeon VM; a constant, so a normalised time is comparable between runs
REF_S = 0.0014
#: seconds between two reference loops inside one operation
TICK_S = 0.1
#: seconds between two full collections, outside any timing
FULL_GC_EVERY_S = 2.0

_ROWS = np.random.default_rng(0).random((32, 256))


def reference_loop() -> float:
    """Fixed work in the planner's mix: dict and tuple traffic, a sort,
    float arithmetic and small numpy reductions."""
    table: dict[tuple[int, int], float] = {}
    for i in range(1500):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0.0) + (i * 0.37) % 1.0
    order = sorted(table.items(), key=lambda kv: kv[1])
    acc = 0.0
    for j, row in enumerate(_ROWS):
        front = np.minimum.accumulate(np.cumsum(row)[::-1])
        k = int(np.argmin(front))
        acc += float(front[k]) + table.get((j, k % 53), 0.0)
    return acc + len(order)


def reference_s() -> float:
    """Wall time of one reference loop, the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sample(NamedTuple):
    """One timed operation: its wall time and the reference loop's
    times before, during and after it."""

    wall_s: float
    refs_s: tuple[float, ...]

    @property
    def seconds(self) -> float:
        """Wall time at the nominal speed."""
        return self.wall_s * REF_S / statistics.fmean(self.refs_s)


_next_full_gc = 0.0


def timed(call: Callable[[], object]) -> tuple[object, Sample]:
    """``call()``'s result and its :class:`Sample`.  Exceptions
    propagate; the timer, the handler and the collector are restored on
    every path."""
    global _next_full_gc
    refs = [reference_s()]
    paused = 0.0

    def tick(_signum, _frame):
        nonlocal paused
        t0 = time.perf_counter()
        refs.append(reference_s())
        paused += time.perf_counter() - t0

    enabled = gc.isenabled()
    gc.disable()
    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - paused
        signal.signal(signal.SIGALRM, previous)
        if enabled:
            gc.enable()
    refs.append(reference_s())
    if time.perf_counter() >= _next_full_gc:
        gc.collect()
        _next_full_gc = time.perf_counter() + FULL_GC_EVERY_S
    else:
        gc.collect(1)
    return result, Sample(wall, tuple(refs))
