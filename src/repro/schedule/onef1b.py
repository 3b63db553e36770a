"""FIFO-1F1B schedule builder (paper Fig. 2 / Fig. 10), and the one
task-graph builder every schedule family lowers to.

The schedule is encoded as a task graph:

* ``fwd(s, m)`` depends on the activation transfer from stage ``s-1``;
* ``bwd(s, m)`` depends on the gradient transfer from stage ``s+1`` and
  on ``fwd(s, m)``;
* the 1F1B in-flight window is encoded statically —
  ``fwd(s, m)`` additionally depends on ``bwd(s, m - (S - s))`` so stage
  ``s`` keeps at most ``S - s`` activations alive (on ``w(s, m - (S -
  s))`` when the backward is split, see below);
* with self-conditioning, each micro-batch runs an extra no-grad forward
  wave whose last-stage output feeds back to stage 0 (Fig. 10's ``Cf``);
* each stage's gradient all-reduce runs on the device's collective
  engine after its last backward.

Priorities implement FIFO-1F1B dispatch: among ready tasks a device
prefers lower micro-batch index and, within one, SC-forward < forward <
backward.

``forwards_first=True`` gives GPipe's graph: the in-flight window goes,
and every priority gains a leading phase group — 0 for SC/forward tasks
and their transfers, 1 for backwards and gradient transfers, 2 for
syncs — so a ready forward always beats a ready backward.

``split_backward=True`` gives the zero-bubble graph: each backward runs
only its grad-input half B (``bwd_b_ms``), and a grad-weight task
``w[s,m]`` (``bwd_w_ms``) follows its B with a priority after every
forward and B, so the work-conserving simulator runs it when the device
would otherwise idle; each sync waits on its stage's W tasks.  The
in-flight window keys on W, the ZB-H1 rule: a micro-batch holds the
inputs its W needs until W ends, so stage ``s`` still keeps at most
``S - s`` micro-batches alive, the window the memory estimator prices.

:func:`makespan_floor` bounds the simulated makespan of these graphs
from below in closed form, without building or simulating them; every
family lowers its ``build`` and its ``floor`` through the same chains
(:mod:`repro.schedule.families`).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ConfigurationError
from .stages import StageExec, validate_stages
from .tasks import Task, TaskKind, device_resource, link_resource, sync_resource

#: phase codes used in dispatch priorities; W tasks' phase is larger
#: than every other, so ``(M + m, _PHASE_W)`` sorts after any forward or
#: B priority ``(m', ...)``
_PHASE_SC, _PHASE_FWD, _PHASE_BWD, _PHASE_W = 0, 1, 2, 4

#: relative margin a makespan floor gives up: its device terms sum task
#: durations in another order than the simulator, so the two differ by
#: float rounding — at most about (terms summed) x 2**-53 relative,
#: around 1e-13 on the zoo's chains
FLOOR_MARGIN = 1e-9


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
    split_backward: bool = False,
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
    split_backward:
        Run each backward as B (grad-input, on the gradient chain) then
        W (grad-weight, ordered after every forward and B), and make
        each sync wait on its stage's W tasks (zero-bubble).
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

    def w_id(s: int, m: int) -> str:
        return f"{p}w[{s},{m}]"

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
                    # activations alive.  A micro-batch's activations
                    # live until its last backward task on the stage —
                    # its W when the backward is split (ZB-H1).
                    window = S - s
                    if m - window >= 0:
                        last = w_id if split_backward else bwd_id
                        deps.append(last(s, m - window))
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
                    duration=stages[s].bwd_b_ms if split_backward
                    else stages[s].bwd_ms,
                    deps=tuple(deps),
                    kind=TaskKind.BACKWARD,
                    priority=(1, m, _PHASE_BWD) if forwards_first else (m, _PHASE_BWD),
                    device=dev(s),
                    meta={"stage": s, "micro_batch": m},
                )
            )
            if split_backward:
                tasks.append(
                    Task(
                        task_id=w_id(s, m),
                        resource=device_resource(dev(s)),
                        duration=stages[s].bwd_w_ms,
                        deps=(bwd_id(s, m),),
                        kind=TaskKind.BACKWARD_W,
                        priority=(1, M + m, _PHASE_W) if forwards_first
                        else (M + m, _PHASE_W),
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
                deps=tuple(w_id(s, m) for m in range(M)) if split_backward
                else (bwd_id(s, M - 1),),
                kind=TaskKind.SYNC,
                priority=(2, M, _PHASE_BWD + 1) if forwards_first
                else (M, _PHASE_BWD + 1),
                device=dev(s),
                meta={"stage": s},
            )
        )
    return tasks


def makespan_floor(
    chains: Sequence[tuple[Sequence[StageExec], Sequence[int]]],
    num_micro_batches: int,
    *,
    self_conditioning: bool = False,
    feedback_ms: float = 0.0,
    comm_scale: float = 1.0,
    split_backward: bool = False,
) -> float:
    """Closed-form lower bound on the simulated makespan of
    :func:`build_1f1b` graphs sharing one device set.

    Each chain is a ``(stages, device_order)`` pair, built with
    ``comm_scale``, ``split_backward`` and the self-conditioning
    arguments.
    Write ``σ`` for ``comm_scale``, ``first`` for a stage's SC forward
    under self-conditioning and its forward otherwise, ``back`` for its
    backward (B when split) and ``work`` for all its compute on one
    micro-batch (SC forward, forward, backward).  The floor is the
    largest of

    * a *device term* per device: ``min head + M·Σ work + min tail``
      over the (chain, stage) pairs it hosts, with ``head(s) =
      Σ_{j<s} (first_j + σ·send_fwd_j)`` and ``tail(s) = Σ_{j<s}
      (back_j + σ·send_bwd_j) + sync_0``, or ``sync_s`` when split;
    * a *path term* per chain and stage ``s``: one micro-batch's SC
      wave, ``σ·feedback``, forward wave and backward down to ``s``
      (then ``W_s`` when split), plus ``sync_s``;

    times ``1 − FLOOR_MARGIN``.

    Why it holds: a device runs one task at a time, and every task of
    stage ``s`` waits for its micro-batch's forward path through the
    stages before ``s``.  A backward follows its forward on the same
    device, and a stage runs its micro-batches in order, so the
    device's last task is a stage's backward of micro-batch ``M - 1``,
    which that micro-batch's backward path to its chain's stage 0
    follows, and then stage 0's sync, which waits on that path's last
    backward; when split it is a W, which its stage's sync follows.  A
    stage's sync follows its last micro-batch's path.  Priorities, the
    in-flight window and link contention only add delay.  The path
    terms add durations in the simulator's own order, so they hold
    exactly in floats; the device terms do not, hence the margin.
    """
    M = num_micro_batches
    if M <= 0:
        raise ConfigurationError("number of micro-batches must be positive")
    sc = self_conditioning
    # Per device: smallest head, summed work, smallest tail.
    heads: dict[int, float] = {}
    busy: dict[int, float] = {}
    tails: dict[int, float] = {}
    floor = 0.0
    for stages, device_order in chains:
        stages = validate_stages(stages)
        # Unsplit, every tail ends in the chain's stage-0 sync.
        head, tail = 0.0, stages[0].sync_ms
        for s, st in enumerate(stages):
            back = st.bwd_b_ms if split_backward else st.bwd_ms
            work = st.fwd_ms + (
                st.bwd_b_ms + st.bwd_w_ms if split_backward else st.bwd_ms
            )
            if sc:
                work += st.sc_fwd_ms
            d = device_order[s]
            heads[d] = min(heads.get(d, math.inf), head)
            busy[d] = busy.get(d, 0.0) + work
            tails[d] = min(
                tails.get(d, math.inf), st.sync_ms if split_backward else tail
            )
            head += (st.sc_fwd_ms if sc else st.fwd_ms) + st.send_fwd_ms * comm_scale
            tail += back + st.send_bwd_ms * comm_scale
        # One micro-batch's path, one task at a time as the simulator
        # adds them: the SC wave and its feedback, the forward wave, then
        # the backward wave, each stage's sync (after its W) ending one
        # path term.
        path = 0.0
        for sc_wave in (True, False) if sc else (False,):
            for s, st in enumerate(stages):
                if s:
                    path += stages[s - 1].send_fwd_ms * comm_scale
                path += st.sc_fwd_ms if sc_wave else st.fwd_ms
            if sc_wave:
                path += feedback_ms * comm_scale
        for s in range(len(stages) - 1, -1, -1):
            st = stages[s]
            if s < len(stages) - 1:
                path += st.send_bwd_ms * comm_scale
            if split_backward:
                path += st.bwd_b_ms
                floor = max(floor, path + st.bwd_w_ms + st.sync_ms)
            else:
                path += st.bwd_ms
                floor = max(floor, path + st.sync_ms)
    for d, work in busy.items():
        floor = max(floor, heads[d] + M * work + tails[d])
    return floor * (1.0 - FLOOR_MARGIN)
