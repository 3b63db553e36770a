"""Differential oracles: the engines production code is held
bit-identical to.

Each recursion ships one engine in ``repro``.  The pure-Python engines
they replaced live here, next to the suites that diff against them:

* :func:`chain_frontiers_reference`, :func:`het_frontiers_reference`
  and :func:`cdm_dp_table_reference` — the partition DP table builds
  (:mod:`repro.core.partition_kernels`);
* :func:`simulate_reference` — the list scheduler
  (:func:`repro.schedule.simulate`);
* :func:`extract_bubbles_reference` — the breakpoint-scan bubble
  extraction (:func:`repro.core.extract_bubbles`);
* :class:`LookaheadReferenceFill` — the unpruned ``lookahead`` fill.

The DP oracles are reached through :func:`reference_dp_kernels`, which
runs the production wrappers, cache keys and plan selection on oracle
tables.  The others are called directly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

from repro.core import partition_kernels

from .bubbles import extract_bubbles_reference
from .fill_strategies import LookaheadReferenceFill
from .partition import chain_frontiers_reference, het_frontiers_reference
from .partition_cdm import cdm_dp_table_reference
from .simulator import simulate_reference

__all__ = [
    "LookaheadReferenceFill",
    "cdm_dp_table_reference",
    "chain_frontiers_reference",
    "dp_engine",
    "extract_bubbles_reference",
    "het_frontiers_reference",
    "reference_dp_kernels",
    "simulate_reference",
]


@contextmanager
def reference_dp_kernels() -> Iterator[Counter]:
    """Build every partition DP table with its oracle.

    Patches ``chain_table_array``, ``het_table_array`` and
    ``cdm_table_array`` on :mod:`repro.core.partition_kernels`.  The
    production wrappers (``_chain_frontiers``, ``_het_frontiers``,
    ``_cdm_dp_table``) look the builders up on that module at call
    time, so ``partition_backbone``, ``partition_cdm`` and the planner
    run unchanged on oracle tables.

    Yields a :class:`~collections.Counter` of oracle builds per table
    store (``chains``, ``het``, ``cdm``, ``cdm_het``): proof that the
    swap reached the code under test.

    The table keys do not name the engine.  Give each side of a
    comparison its own fresh ``PlannerCaches``; a shared one would serve
    the second side from the first side's tables.
    """
    calls: Counter = Counter()

    def chain(*args, **kwargs):
        calls["chains"] += 1
        return chain_frontiers_reference(*args, **kwargs)

    def het(*args, **kwargs):
        calls["het"] += 1
        return het_frontiers_reference(*args, **kwargs)

    def cdm(ctx, S, *, plans=None, **kwargs):
        # ``plans`` caches the array engine's transition geometry; the
        # oracle has none.
        calls["cdm" if kwargs["fixed_r"] is not None else "cdm_het"] += 1
        return cdm_dp_table_reference(ctx, S, **kwargs)

    swaps = {
        "chain_table_array": chain,
        "het_table_array": het,
        "cdm_table_array": cdm,
    }
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
