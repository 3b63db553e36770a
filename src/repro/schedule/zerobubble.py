"""Zero-bubble schedule builder: 1F1B with the backward split into
B (grad-input) and W (grad-weight).

Following sail-sg/zero-bubble's observation, only the grad-input half of
a backward sits on the inter-stage critical path — the gradient sent to
stage ``s-1`` is ready as soon as ``dy @ W^T`` finishes — while the
grad-weight GEMM (``x^T @ dy``) is needed only before the optimizer
step.  Splitting them lets W work slide into what were pipeline bubbles:

* the task graph is FIFO-1F1B built over the *B* durations (so the
  warm-up/cool-down ramps and all gradient transfers shorten to B's
  length);
* each ``bwd[s,m]`` keeps its id and dependencies but runs only the B
  component, so the existing comm, in-flight-window and feedback wiring
  is inherited unchanged;
* a new ``w[s,m]`` task (kind :data:`TaskKind.BACKWARD_W`) depends only
  on its own B and carries a priority ordered *after* every forward and
  B — under the simulator's work-conserving dispatch it runs exactly
  when the device would otherwise idle (the ZB-H1 heuristic);
* the gradient all-reduce waits for all of a stage's W tasks instead of
  its last backward.

The in-flight window still keys on B (a new forward may start once the
grad-input of the window predecessor is done); activations needed by the
deferred W tasks live slightly longer, which is zero-bubble's documented
memory cost — the memory estimator prices the family with the 1F1B
window as a deliberate approximation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .onef1b import build_1f1b
from .stages import StageExec, validate_stages
from .tasks import Task, TaskKind

#: phase code of W tasks; larger than every phase used by build_1f1b so
#: ``(M + m, _PHASE_W)`` sorts after any forward/B priority ``(m', ...)``.
_PHASE_W = 4


def build_zerobubble(
    stages: Sequence[StageExec],
    num_micro_batches: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
) -> list[Task]:
    """Build the split-backward (zero-bubble) task graph.

    Takes the single-pipeline parameters of :func:`build_1f1b`; stage
    B/W durations come from :attr:`StageExec.bwd_b_ms` /
    :attr:`StageExec.bwd_w_ms` (defaulting to an even split).
    """
    stages = validate_stages(stages)
    M = num_micro_batches
    base = build_1f1b(
        stages,
        M,
        self_conditioning=self_conditioning,
        feedback_ms=feedback_ms,
    )
    tasks: list[Task] = []
    w_ids: dict[int, list[str]] = {s.index: [] for s in stages}
    for t in base:
        if t.kind is TaskKind.BACKWARD:
            s = int(t.meta["stage"])  # type: ignore[arg-type]
            m = int(t.meta["micro_batch"])  # type: ignore[arg-type]
            tasks.append(replace(t, duration=stages[s].bwd_b_ms))
            w_id = f"w[{s},{m}]"
            w_ids[s].append(w_id)
            tasks.append(
                Task(
                    task_id=w_id,
                    resource=t.resource,
                    duration=stages[s].bwd_w_ms,
                    deps=(t.task_id,),
                    kind=TaskKind.BACKWARD_W,
                    priority=(M + m, _PHASE_W),
                    device=t.device,
                    meta={"stage": s, "micro_batch": m},
                )
            )
        elif t.kind is TaskKind.SYNC:
            s = int(t.meta["stage"])  # type: ignore[arg-type]
            tasks.append(replace(t, deps=tuple(w_ids[s])))
        else:
            tasks.append(t)
    return tasks
