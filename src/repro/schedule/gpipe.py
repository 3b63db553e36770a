"""GPipe schedule builder (Huang et al. 2019).

GPipe is the FIFO-1F1B task graph built with ``forwards_first=True``
(:func:`~repro.schedule.onef1b.build_1f1b`):

* there is no in-flight window — no forward waits for a backward, so
  every micro-batch's activations stay alive until its backward, which
  is what gives GPipe its higher memory footprint (the memory estimator
  prices all ``M`` micro-batches on every stage, an upper bound);
* a ready forward (or SC forward) always beats a ready backward on its
  device, and syncs come last.

Dispatch stays work-conserving, so this is not a strict
all-forwards-then-all-backwards barrier: on skewed stages a backward
can start on a device while a later micro-batch's forward has not yet
arrived there.

The paper evaluates GPipe with equal-layer-count partitioning, 2 stages
and 4 micro-batches (§6, Baselines); the equal partitioning itself lives
in :mod:`repro.baselines.gpipe`.
"""

from __future__ import annotations

from typing import Sequence

from .onef1b import build_1f1b
from .stages import StageExec
from .tasks import Task


def build_gpipe(
    stages: Sequence[StageExec],
    num_micro_batches: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
) -> list[Task]:
    """Build the GPipe task graph: the 1F1B graph, forwards first."""
    return build_1f1b(
        stages,
        num_micro_batches,
        self_conditioning=self_conditioning,
        feedback_ms=feedback_ms,
        forwards_first=True,
    )
