"""Checks every returned plan from outside the planner.

A plan that fails any check counts as a failed operation, the same as a
plan() or replan() that raises.  :class:`Ledger` also keeps, per
operation key, the chosen configuration and ``float.hex`` of its
throughput, so a plan that changes between two identical operations of
one run fails too, and two runs can be diffed for determinism.
"""

from __future__ import annotations

import math
import sys
import traceback
from typing import Callable

from repro.cluster.topology import ClusterSpec
from repro.core.plan import ExecutionPlan
from repro.models.graph import ModelSpec
from repro.profiling.records import ProfileDB

from timing import timed


def plan_problems(
    plan: ExecutionPlan,
    model: ModelSpec,
    profile: ProfileDB,
    cluster: ClusterSpec,
    global_batch: float,
    heterogeneous: bool,
) -> list[str]:
    """Violated invariants of one plan (empty when it is sound)."""
    problems = []
    part = plan.partition
    if plan.global_batch != global_batch:
        problems.append(f"global batch {plan.global_batch} != {global_batch}")
    if not plan.iteration_ms >= plan.pipeline_ms:
        problems.append(
            f"iteration_ms {plan.iteration_ms} < pipeline_ms {plan.pipeline_ms}"
        )
    samples = global_batch * (2 if part.is_bidirectional else 1)
    expected = samples / plan.iteration_ms * 1e3
    if not math.isclose(plan.throughput, expected, rel_tol=1e-12):
        problems.append(f"throughput {plan.throughput} != {expected}")
    names = model.backbone_names
    chains = (part.down, part.up) if len(names) == 2 else (part.down,)
    if len(names) == 1 and part.up:
        problems.append("single-backbone plan has an up chain")
    for name, chain in zip(names, chains):
        layers = sorted(
            i for st in chain if st.component == name for i in range(st.lo, st.hi)
        )
        if len(layers) != sum(st.num_layers for st in chain):
            problems.append(f"{name} chain holds stages of another component")
        if layers != list(range(profile.num_layers(name))):
            problems.append(f"{name} chain does not cover each layer once")
        # Heterogeneous replication may leave devices of the group idle
        # (the partitioners accept any assignment using at most D);
        # uniform replication uses exactly D.
        replicas = sum(st.replicas for st in chain)
        if replicas > part.group_size or (
            not heterogeneous and replicas != part.group_size
        ):
            problems.append(
                f"{name} replicas sum to {replicas}, group size {part.group_size}"
            )
    if part.group_size * plan.data_parallel_degree != cluster.world_size:
        problems.append(
            f"D={part.group_size} x dp={plan.data_parallel_degree} "
            f"!= world {cluster.world_size}"
        )
    if plan.memory is None or not plan.memory.fits:
        problems.append("plan does not fit in device memory")
    return problems


class Ledger:
    """Runs operations, times them, and counts the ones that fail."""

    def __init__(
        self,
        model: ModelSpec,
        profile: ProfileDB,
        heterogeneous: bool,
        after: Callable[[], None] | None = None,
    ):
        self.model = model
        self.profile = profile
        self.heterogeneous = heterogeneous
        #: called after every operation, outside its timing
        self.after = after
        self.attempted = 0
        self.failed = 0
        #: op key -> (config label, float.hex(throughput))
        self.record: dict[str, tuple[str, str]] = {}

    def run(
        self,
        key: str,
        call,
        cluster: ClusterSpec,
        global_batch: float,
        expect: ExecutionPlan | None = None,
    ):
        """``(evaluated config, timing.Sample)`` of ``call()``, or
        ``None`` when it raised or returned a plan that fails a check."""
        try:
            return self._run(key, call, cluster, global_batch, expect)
        finally:
            if self.after is not None:
                self.after()

    def _run(self, key, call, cluster, global_batch, expect):
        self.attempted += 1
        try:
            ev, sample = timed(call)
        except Exception:
            print(f"[{key}] raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        plan = ev.plan
        problems = plan_problems(
            plan, self.model, self.profile, cluster, global_batch, self.heterogeneous
        )
        if expect is not None and plan != expect:
            problems.append("plan differs from the cold plan of this membership")
        seen = (plan.config_label, float.hex(plan.throughput))
        first = self.record.setdefault(key, seen)
        if first != seen:
            problems.append(f"plan {seen} differs from earlier {first}")
        if problems:
            print(f"[{key}] failed checks: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        return ev, sample
