"""Differential oracles: the engines production code is held
bit-identical to.

Each recursion ships one engine in ``repro``.  The pure-Python engines
they replaced live here, next to the suites that diff against them:

* :func:`het_frontiers_reference` and :func:`cdm_dp_table_reference` —
  the two partition DP table builds (:mod:`repro.core.partition_kernels`),
  each serving a pinned (uniform) and a free (heterogeneous) replica
  count;
* :func:`chain_frontiers_reference` — the uniform-replication DP over
  prefixes, which the fold test holds the pinned 1F1B table to;
* :func:`pareto_insert` — the sequential frontier fold every DP oracle
  runs per candidate, and the reference of the array kernels' drop
  masks (``_staircase_drop`` and ``_peel_drop`` in
  :mod:`repro.core.partition_kernels`);
* :func:`cdm_floor_reference` and :func:`het_floor_reference` — the
  bound ladder's pre-partition makespan floor terms by brute force over
  every lattice partition
  (:func:`repro.core.partition_kernels.cdm_floor_array` and
  :func:`repro.core.partition_kernels.het_floor_array`);
* :func:`cdm_plan_reference` — the ``np.unique`` grouping of the
  geometry plan all four kernels read
  (``repro.core.partition_kernels._build_cdm_plan``), the 1F1B
  lattice's last position keyed by replica count included;
* :func:`simulate_reference` — the list scheduler
  (:func:`repro.schedule.simulate`);
* :func:`extract_bubbles_reference` — the breakpoint-scan bubble
  extraction (:func:`repro.core.extract_bubbles`);
* :class:`LookaheadReferenceFill` — the unpruned ``lookahead`` fill;
* :func:`memory_report_reference`, :func:`stage_execs_reference` and
  :func:`device_weights_reference` — the stage placement the memory
  estimator and the planner derived before both read a schedule
  family's ``chains``.

The DP table oracles are reached through :func:`reference_dp_kernels`,
which runs the production wrappers, cache keys and plan selection on
oracle tables.  The others are called directly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

from repro.core import partition_kernels

from .bubbles import extract_bubbles_reference
from .fill_strategies import LookaheadReferenceFill
from .partition import (
    chain_frontiers_reference,
    het_floor_reference,
    het_frontiers_reference,
    pareto_insert,
)
from .partition_cdm import (
    cdm_dp_table_reference,
    cdm_floor_reference,
    cdm_plan_reference,
)
from .placement import (
    device_weights_reference,
    memory_report_reference,
    stage_execs_reference,
)
from .simulator import simulate_reference

__all__ = [
    "LookaheadReferenceFill",
    "cdm_dp_table_reference",
    "cdm_floor_reference",
    "cdm_plan_reference",
    "chain_frontiers_reference",
    "device_weights_reference",
    "dp_engine",
    "extract_bubbles_reference",
    "het_floor_reference",
    "het_frontiers_reference",
    "memory_report_reference",
    "pareto_insert",
    "reference_dp_kernels",
    "simulate_reference",
    "stage_execs_reference",
]


@contextmanager
def reference_dp_kernels() -> Iterator[Counter]:
    """Build every partition DP table with its oracle.

    Patches ``het_table_array`` and ``cdm_table_array`` on
    :mod:`repro.core.partition_kernels`.  The production wrappers
    (``_het_frontiers``, ``_cdm_frontiers``) look the builders up on
    that module at call time, so ``partition_backbone``,
    ``partition_cdm`` and the planner run unchanged on oracle tables.
    Both swaps take the wrappers' ``plans`` store, the array engines'
    transition geometry, and ignore it: the oracles have none.

    Yields a :class:`~collections.Counter` of oracle builds per table
    store and flavour (``("het", "pinned")``, ``("het", "free")``,
    ``("cdm", "pinned")``, ``("cdm", "free")``): proof that the swap
    reached the code under test.

    The table keys do not name the engine.  Give each side of a
    comparison its own fresh ``PlannerCaches``; a shared one would serve
    the second side from the first side's tables.
    """
    calls: Counter = Counter()

    def flavour(fixed_r) -> str:
        return "free" if fixed_r is None else "pinned"

    def het(ctx, L, S, D, fixed_r=None, plans=None):
        calls["het", flavour(fixed_r)] += 1
        return het_frontiers_reference(ctx, L, S, D, fixed_r)

    def cdm(ctx, S, *, plans=None, **kwargs):
        calls["cdm", flavour(kwargs["fixed_r"])] += 1
        return cdm_dp_table_reference(ctx, S, **kwargs)

    swaps = {"het_table_array": het, "cdm_table_array": cdm}
    saved = {name: getattr(partition_kernels, name) for name in swaps}
    try:
        for name, oracle in swaps.items():
            setattr(partition_kernels, name, oracle)
        yield calls
    finally:
        for name, builder in saved.items():
            setattr(partition_kernels, name, builder)


def dp_engine(name: str) -> ContextManager:
    """The DP engine named by a differential test's parameter:
    ``"array"`` (production, nothing patched) or ``"reference"``
    (:func:`reference_dp_kernels`)."""
    if name == "array":
        return nullcontext()
    if name == "reference":
        return reference_dp_kernels()
    raise ValueError(f"unknown DP engine {name!r}")
