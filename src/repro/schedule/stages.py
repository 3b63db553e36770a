"""Stage execution descriptions: the interface between partitioning and
schedule building.

A :class:`StageExec` captures everything the schedule builders need to
know about one pipeline stage: its per-micro-batch forward/backward
times (at the stage's *local* batch size, i.e. micro-batch divided by
the stage's replication factor), inter-stage communication times, its
gradient-synchronisation time and its replication factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError
from ..units import is_int, positive_int

#: every duration a stage carries: finite and >= 0 (optional ones if given)
_DURATION_FIELDS = ("fwd_ms", "bwd_ms", "sc_fwd_ms", "send_fwd_ms",
                    "send_bwd_ms", "sync_ms", "bwd_b_ms", "bwd_w_ms")


@dataclass(frozen=True)
class StageExec:
    """Execution profile of one pipeline stage.

    Parameters
    ----------
    index:
        Stage position in the pipeline (0-based, in pipeline direction).
    fwd_ms / bwd_ms:
        Per-micro-batch forward/backward compute time.
    sc_fwd_ms:
        Self-conditioning forward time (defaults to ``fwd_ms``).
    send_fwd_ms:
        Time to ship this stage's activations to the next stage.
    send_bwd_ms:
        Time to ship this stage's input-gradients to the previous stage.
    sync_ms:
        Gradient all-reduce time of this stage at pipeline flush.
    replicas:
        Number of physical devices this (logical) stage replicates on.
    layer_range:
        The (component, lo, hi) layer slice this stage runs, if known.
    bwd_b_ms / bwd_w_ms:
        Split-backward components (grad-input / grad-weight) used by the
        ``zerobubble`` family.  Default to an even split of ``bwd_ms``
        (exact in floating point); when one is given the other is
        derived so B + W always reconstructs ``bwd_ms``.
    """

    index: int
    fwd_ms: float
    bwd_ms: float
    sc_fwd_ms: float | None = None
    send_fwd_ms: float = 0.0
    send_bwd_ms: float = 0.0
    sync_ms: float = 0.0
    replicas: int = 1
    layer_range: tuple[str, int, int] | None = None
    bwd_b_ms: float | None = None
    bwd_w_ms: float | None = None

    def __post_init__(self) -> None:
        if not (is_int(self.index) and self.index >= 0):
            raise ConfigurationError(
                f"stage index must be an integer >= 0, got {self.index!r}"
            )
        for name in _DURATION_FIELDS:
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"stage {self.index}: {name} must be finite and "
                    f"non-negative, got {value}"
                )
        if not positive_int(self.replicas):
            raise ConfigurationError(
                f"stage {self.index}: replicas must be an integer >= 1, "
                f"got {self.replicas!r}"
            )
        if self.sc_fwd_ms is None:
            object.__setattr__(self, "sc_fwd_ms", self.fwd_ms)
        b, w = self.bwd_b_ms, self.bwd_w_ms
        if b is None and w is None:
            # x/2 + x/2 == x exactly in IEEE arithmetic.
            w = 0.5 * self.bwd_ms
            b = self.bwd_ms - w
        elif b is None:
            b = self.bwd_ms - w
        elif w is None:
            w = self.bwd_ms - b
        if b < 0 or w < 0:
            raise ConfigurationError(
                f"stage {self.index}: backward split components must be "
                f"non-negative (bwd={self.bwd_ms}, B={b}, W={w})"
            )
        if abs((b + w) - self.bwd_ms) > 1e-9 * max(1.0, self.bwd_ms):
            raise ConfigurationError(
                f"stage {self.index}: B + W must reconstruct bwd_ms "
                f"(bwd={self.bwd_ms}, B={b}, W={w})"
            )
        object.__setattr__(self, "bwd_b_ms", b)
        object.__setattr__(self, "bwd_w_ms", w)


def validate_stages(stages: Sequence[StageExec]) -> list[StageExec]:
    """Check a stage chain is contiguous and well-formed."""
    stages = list(stages)
    if not stages:
        raise ConfigurationError("empty stage list")
    for i, s in enumerate(stages):
        if s.index != i:
            raise ConfigurationError(
                f"stage at position {i} has index {s.index}; stages must be "
                "listed in pipeline order with contiguous indices"
            )
    return stages
