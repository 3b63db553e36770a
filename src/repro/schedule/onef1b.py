"""FIFO-1F1B schedule builder (paper Fig. 2 / Fig. 10), and the one
task-graph builder every schedule family lowers to.

The schedule is encoded as a task graph:

* ``fwd(s, m)`` depends on the activation transfer from stage ``s-1``;
* ``bwd(s, m)`` depends on the gradient transfer from stage ``s+1`` and
  on ``fwd(s, m)``;
* the 1F1B in-flight window is encoded statically —
  ``fwd(s, m)`` additionally depends on ``bwd(s, m - (S - s))`` so stage
  ``s`` keeps at most ``S - s`` activations alive;
* with self-conditioning, each micro-batch runs an extra no-grad forward
  wave whose last-stage output feeds back to stage 0 (Fig. 10's ``Cf``);
* each stage's gradient all-reduce runs on the device's collective
  engine after its last backward.

Priorities implement FIFO-1F1B dispatch: among ready tasks a device
prefers lower micro-batch index and, within one, SC-forward < forward <
backward.

``forwards_first=True`` gives GPipe's graph (see
:mod:`repro.schedule.gpipe`): the in-flight window goes, and every
priority gains a leading phase group — 0 for SC/forward tasks and their
transfers, 1 for backwards and gradient transfers, 2 for syncs — so a
ready forward always beats a ready backward.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from .stages import StageExec, validate_stages
from .tasks import Task, TaskKind, device_resource, link_resource, sync_resource

#: phase codes used in dispatch priorities
_PHASE_SC, _PHASE_FWD, _PHASE_BWD = 0, 1, 2


def build_1f1b(
    stages: Sequence[StageExec],
    num_micro_batches: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
    id_prefix: str = "",
    device_order: Sequence[int] | None = None,
    comm_scale: float = 1.0,
    forwards_first: bool = False,
) -> list[Task]:
    """Build the FIFO-1F1B task graph for one backbone pipeline.

    Parameters
    ----------
    stages:
        The stage chain (length ``S``).
    num_micro_batches:
        ``M`` micro-batches per iteration.
    self_conditioning:
        Add the extra forward wave + feedback transfer of §4.3.
    feedback_ms:
        Duration of the last-stage -> first-stage feedback transfer.
    id_prefix:
        Prefix for task ids (used when composing multiple pipelines).
    device_order:
        Mapping from stage position to logical device: stage ``s`` runs
        on ``device_order[s]`` if given, else on device ``s``.
        Bidirectional composition passes a reversed order for the up
        pipeline, the interleaved family a round-robin one for its
        chunks.
    comm_scale:
        Multiplier on all communication durations (bidirectional
        pipelines double communication cost, §4.2).
    forwards_first:
        Drop the in-flight window and order every forward before every
        backward, and every backward before every sync (GPipe).
    """
    stages = validate_stages(stages)
    S = len(stages)
    M = num_micro_batches
    if M <= 0:
        raise ConfigurationError("number of micro-batches must be positive")
    if comm_scale <= 0:
        raise ConfigurationError("comm_scale must be positive")
    device_order = list(range(S) if device_order is None else device_order)
    if len(device_order) != S:
        raise ConfigurationError("device_order length must equal stage count")

    p = id_prefix
    tasks: list[Task] = []

    def dev(s: int) -> int:
        return device_order[s]

    def fwd_id(s: int, m: int) -> str:
        return f"{p}fwd[{s},{m}]"

    def bwd_id(s: int, m: int) -> str:
        return f"{p}bwd[{s},{m}]"

    def sc_id(s: int, m: int) -> str:
        return f"{p}sc[{s},{m}]"

    waves = ([(_PHASE_SC, sc_id)] if self_conditioning else []) + [(_PHASE_FWD, fwd_id)]

    for m in range(M):
        # Forward waves (self-conditioning wave first, then the main wave).
        for wave_idx, (phase, mk_id) in enumerate(waves):
            for s in range(S):
                deps: list[str] = []
                if s > 0:
                    deps.append(f"{p}c{phase}[{s - 1},{m}]")
                if phase == _PHASE_FWD and self_conditioning:
                    # The main forward of stage 0 consumes the fed-back
                    # output of the SC wave (Fig. 10's Cf).
                    if s == 0:
                        deps.append(f"{p}cf[{m}]")
                if phase == _PHASE_FWD and not forwards_first:
                    # 1F1B in-flight window: stage s keeps at most S - s
                    # activations alive.
                    window = S - s
                    if m - window >= 0:
                        deps.append(bwd_id(s, m - window))
                duration = (
                    stages[s].sc_fwd_ms if phase == _PHASE_SC else stages[s].fwd_ms
                )
                assert duration is not None
                tasks.append(
                    Task(
                        task_id=mk_id(s, m),
                        resource=device_resource(dev(s)),
                        duration=duration,
                        deps=tuple(deps),
                        kind=TaskKind.SC_FORWARD
                        if phase == _PHASE_SC
                        else TaskKind.FORWARD,
                        priority=(0, m, phase, wave_idx) if forwards_first
                        else (m, phase, wave_idx),
                        device=dev(s),
                        meta={"stage": s, "micro_batch": m},
                    )
                )
                # Activation transfer to the next stage.
                if s < S - 1:
                    tasks.append(
                        Task(
                            task_id=f"{p}c{phase}[{s},{m}]",
                            resource=link_resource(dev(s), dev(s + 1)),
                            duration=stages[s].send_fwd_ms * comm_scale,
                            deps=(mk_id(s, m),),
                            kind=TaskKind.COMM,
                            priority=(0, m, phase) if forwards_first else (m, phase),
                            device=None,
                            meta={"stage": s, "micro_batch": m, "dir": "fwd"},
                        )
                    )
            if phase == _PHASE_SC:
                # Feedback transfer: last stage output -> stage 0 input.
                tasks.append(
                    Task(
                        task_id=f"{p}cf[{m}]",
                        resource=link_resource(dev(S - 1), dev(0)),
                        duration=feedback_ms * comm_scale,
                        deps=(sc_id(S - 1, m),),
                        kind=TaskKind.COMM,
                        priority=(0, m, phase) if forwards_first else (m, phase),
                        device=None,
                        meta={"micro_batch": m, "dir": "feedback"},
                    )
                )

        # Backward wave, last stage to first.
        for s in range(S - 1, -1, -1):
            deps = [fwd_id(s, m)]
            if s < S - 1:
                deps.append(f"{p}g[{s + 1},{m}]")
            tasks.append(
                Task(
                    task_id=bwd_id(s, m),
                    resource=device_resource(dev(s)),
                    duration=stages[s].bwd_ms,
                    deps=tuple(deps),
                    kind=TaskKind.BACKWARD,
                    priority=(1, m, _PHASE_BWD) if forwards_first else (m, _PHASE_BWD),
                    device=dev(s),
                    meta={"stage": s, "micro_batch": m},
                )
            )
            if s > 0:
                tasks.append(
                    Task(
                        task_id=f"{p}g[{s},{m}]",
                        resource=link_resource(dev(s), dev(s - 1)),
                        duration=stages[s - 1].send_bwd_ms * comm_scale,
                        deps=(bwd_id(s, m),),
                        kind=TaskKind.COMM,
                        priority=(1, m, _PHASE_BWD) if forwards_first
                        else (m, _PHASE_BWD),
                        device=None,
                        meta={"stage": s, "micro_batch": m, "dir": "bwd"},
                    )
                )

    # Gradient synchronisation per stage after its last backward.
    for s in range(S):
        tasks.append(
            Task(
                task_id=f"{p}sync[{s}]",
                resource=sync_resource(dev(s)),
                duration=stages[s].sync_ms,
                deps=(bwd_id(s, M - 1),),
                kind=TaskKind.SYNC,
                priority=(2, M, _PHASE_BWD + 1) if forwards_first
                else (M, _PHASE_BWD + 1),
                device=dev(s),
                meta={"stage": s},
            )
        )
    return tasks
