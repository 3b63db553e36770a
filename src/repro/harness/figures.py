"""Data generators for the paper's figures (4, 5, 6, 14, 15).

Each function returns plain data structures that the corresponding
benchmark renders and asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..cluster.topology import ClusterSpec
from ..core.planner import (
    DiffusionPipePlanner,
    PlannerCaches,
    PlannerOptions,
    nt_serial_ms,
)
from ..errors import ConfigurationError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from ..baselines.gpipe import GPipeBaseline
from ..baselines.spp import SPPBaseline


# -- Fig. 4: bubble-ratio grids ------------------------------------------------------


@dataclass(frozen=True)
class BubbleGridCell:
    """One (stages, micro-batches) point of the Fig. 4 grid."""

    num_stages: int
    num_micro: int
    ratio_of_iteration: float       # upper number of Fig. 4
    ratio_of_nt_time: float         # lower number of Fig. 4


def bubble_ratio_grid(
    model: ModelSpec,
    cluster: ClusterSpec,
    profile: ProfileDB,
    *,
    batch: int = 64,
    stage_counts: Sequence[int] = (2, 3, 4),
    micro_counts: Sequence[int] = (1, 2, 3, 4),
) -> list[BubbleGridCell]:
    """Reproduce Fig. 4's profiling setup: FIFO-1F1B backbone pipelining
    with the NT part executed data-parallel before the pipeline.

    The iteration time is pipeline + NT (upper ratio); the lower ratio
    divides total bubble device-time by the NT part's single-device
    full-batch execution time.
    """
    planner = DiffusionPipePlanner(
        model,
        cluster,
        profile,
        options=PlannerOptions(
            max_stages=max(stage_counts),
            enable_bubble_filling=False,
            check_memory=False,
        ),
    )
    nt_full = nt_serial_ms(model, profile, batch, 1)
    cells = []
    for S in stage_counts:
        for M in micro_counts:
            partition = planner._partition(batch, S, S, M, heterogeneous=False)
            tl = planner._simulate(partition, batch, sc=False)
            iteration = tl.makespan + nt_serial_ms(model, profile, batch, S)
            bubble_dev = tl.bubble_device_time()
            cells.append(
                BubbleGridCell(
                    num_stages=S,
                    num_micro=M,
                    ratio_of_iteration=bubble_dev / (iteration * S),
                    ratio_of_nt_time=bubble_dev / nt_full,
                )
            )
    return cells


# -- Fig. 5: non-trainable layer execution times ---------------------------------------


def nt_layer_times(
    model: ModelSpec, profile: ProfileDB, batch: float = 64
) -> list[tuple[str, int, float]]:
    """(component, global index, forward ms) of every frozen layer."""
    out = []
    idx = 0
    for comp in model.non_trainable:
        for i in range(profile.num_layers(comp.name)):
            out.append((comp.name, idx, profile.fwd_ms(comp.name, i, batch)))
            idx += 1
    return out


# -- Fig. 6: extra-long layers vs bubble sizes -----------------------------------------


@dataclass(frozen=True)
class LongLayerSeries:
    """Execution time of one top-k NT layer across batch sizes."""

    component: str
    layer: int
    batches: tuple[float, ...]
    times_ms: tuple[float, ...]


def top_layer_series(
    model: ModelSpec,
    profile: ProfileDB,
    *,
    top_k: int = 3,
    batches: Sequence[float] = (4, 8, 16, 24, 32, 48, 64),
) -> list[LongLayerSeries]:
    """Fig. 6's curves: the top-k longest NT layers over batch sizes."""
    ranked = sorted(
        nt_layer_times(model, profile, batch=max(batches)),
        key=lambda t: -t[2],
    )[:top_k]
    series = []
    layer_index_by_global: dict[int, tuple[str, int]] = {}
    idx = 0
    for comp in model.non_trainable:
        for i in range(profile.num_layers(comp.name)):
            layer_index_by_global[idx] = (comp.name, i)
            idx += 1
    for comp_name, gidx, _ in ranked:
        cname, layer = layer_index_by_global[gidx]
        times = tuple(profile.fwd_ms(cname, layer, b) for b in batches)
        series.append(
            LongLayerSeries(
                component=cname, layer=layer, batches=tuple(batches),
                times_ms=times,
            )
        )
    return series


def longest_bubble_by_stages(
    model: ModelSpec,
    cluster: ClusterSpec,
    profile: ProfileDB,
    *,
    batch: int = 64,
    num_micro: int = 4,
    stage_counts: Sequence[int] = (2, 3, 4),
) -> dict[int, float]:
    """Fig. 6's horizontal lines: the longest pipeline bubble per stage
    count (FIFO-1F1B, 4 micro-batches, batch 64).

    "Bubble" here is a per-device contiguous idle span — the gray blocks
    of Fig. 2 — which is the capacity an individual layer must fit into.
    """
    planner = DiffusionPipePlanner(
        model,
        cluster,
        profile,
        options=PlannerOptions(
            max_stages=max(stage_counts),
            enable_bubble_filling=False,
            check_memory=False,
        ),
    )
    out = {}
    for S in stage_counts:
        partition = planner._partition(batch, S, S, num_micro, heterogeneous=False)
        tl = planner._simulate(partition, batch, sc=False)
        longest = 0.0
        for dev in range(S):
            for span in tl.idle_spans(dev):
                longest = max(longest, span.duration)
        out[S] = longest
    return out


# -- Fig. 14: bubble ratios of DiffusionPipe vs GPipe vs SPP -----------------------------


def bubble_ratio_comparison(
    model: ModelSpec,
    cluster: ClusterSpec,
    profile: ProfileDB,
    *,
    batches: Sequence[int] = (256, 384),
    options: PlannerOptions | None = None,
    heterogeneous: bool = False,
) -> dict[str, dict[int, float]]:
    """Bubble ratio of the three pipeline systems at 8 GPUs."""
    options = options or PlannerOptions(
        max_stages=4, micro_batch_counts=(1, 2, 3, 4, 6, 8), group_sizes=(2, 4, 8)
    )
    if heterogeneous:
        options = replace(options, heterogeneous_replication=True)
    caches = PlannerCaches()
    planner = DiffusionPipePlanner(model, cluster, profile, options=options,
                                   caches=caches)
    spp = SPPBaseline(model, cluster, profile, options=options, caches=caches)
    gpipe = GPipeBaseline(model, cluster, profile)
    out: dict[str, dict[int, float]] = {
        "DiffusionPipe": {}, "GPipe": {}, "SPP": {},
    }
    for b in batches:
        out["DiffusionPipe"][b] = planner.plan(b).plan.bubble_ratio_filled
        out["SPP"][b] = spp.bubble_ratio(b)
        out["GPipe"][b] = gpipe.bubble_ratio(b)
    return out


# -- Fig. 15: ablation ---------------------------------------------------------------


def ablation_throughputs(
    model: ModelSpec,
    cluster: ClusterSpec,
    profile: ProfileDB,
    *,
    batches: Sequence[int] = (256, 384),
    options: PlannerOptions | None = None,
    heterogeneous: bool = False,
    fill_strategies: Sequence[str] = ("lookahead",),
) -> dict[str, dict[int, float]]:
    """DiffusionPipe vs partial-batch-disabled vs filling-disabled, plus
    one column per extra fill strategy (the §5 policy ablation).

    ``fill_strategies`` names registered
    :class:`~repro.core.fill_strategies.FillStrategy` variants to
    evaluate next to the paper's three Fig. 15 columns (the baseline
    ``DiffusionPipe`` column is the ``greedy`` strategy); pass ``()``
    to reproduce the paper's figure exactly.  Works for cascaded models
    too; with ``heterogeneous=True`` the planner admits non-divisible
    (S, D) combos for both the 1F1B and the bidirectional CDM
    partitioners.
    """
    base = options or PlannerOptions(
        max_stages=4, micro_batch_counts=(1, 2, 3, 4, 6, 8), group_sizes=(2, 4, 8)
    )
    if heterogeneous:
        base = replace(base, heterogeneous_replication=True)
    variants = {
        "DiffusionPipe": base,
        "Partial-batch disabled": replace(base, enable_partial_batch=False),
        "Bubble filling disabled": replace(base, enable_bubble_filling=False),
    }
    for strategy in fill_strategies:
        variants[f"Fill strategy: {strategy}"] = replace(
            base, fill_strategy=strategy
        )
    # The variants differ only in filling options, so they share every
    # partition (and, via the shared ``caches.timelines`` memo, every
    # simulated schedule).
    caches = PlannerCaches()
    out: dict[str, dict[int, float]] = {}
    for name, opts in variants.items():
        planner = DiffusionPipePlanner(model, cluster, profile, options=opts,
                                       caches=caches)
        out[name] = {}
        for b in batches:
            try:
                out[name][b] = planner.plan(b).plan.throughput
            except ConfigurationError:
                out[name][b] = 0.0
    return out


# -- Schedule families: bubble ratio per family ----------------------------------------


@dataclass(frozen=True)
class FamilyBubbleRow:
    """One schedule family's metrics at a fixed (D, S, M) point."""

    family: str
    bubble_ratio_unfilled: float
    bubble_ratio_filled: float
    fill_fraction: float
    throughput: float
    config_label: str


def bubble_ratio_by_family(
    model: ModelSpec,
    cluster: ClusterSpec,
    profile: ProfileDB,
    *,
    global_batch: int = 256,
    group_size: int = 8,
    num_stages: int = 4,
    num_micro: int = 8,
    families: Sequence[str] = (
        "gpipe", "onef1b", "interleaved", "zerobubble",
    ),
    options: PlannerOptions | None = None,
    caches: PlannerCaches | None = None,
) -> list[FamilyBubbleRow]:
    """Bubble ratio of each schedule family at one fixed configuration.

    Evaluating every family at the *same* (D, S, M) point isolates the
    schedule shape: best-throughput planning would let each family pick
    a different configuration and muddy the comparison.  Bubble filling
    runs with the caller's options (enabled by default), so the rows
    show both the raw schedule bubbles (``bubble_ratio_unfilled``) and
    what remains once the non-trainable part slides in.

    Expected ordering on the paper's zoo: ``zerobubble`` (W work hides
    the ramps) < ``interleaved`` (per-chunk ramps) < ``onef1b`` <
    ``gpipe`` on the unfilled ratio.
    """
    base = options or PlannerOptions()
    caches = caches if caches is not None else PlannerCaches()
    rows = []
    for fam in families:
        planner = DiffusionPipePlanner(
            model,
            cluster,
            profile,
            options=replace(base, schedule=fam),
            caches=caches,
        )
        ev = planner.evaluate(global_batch, group_size, num_stages, num_micro)
        if ev is None:
            raise ConfigurationError(
                f"schedule family {fam!r} is infeasible at "
                f"(D={group_size}, S={num_stages}, M={num_micro}) for "
                f"{model.name!r} at batch {global_batch}"
            )
        plan = ev.plan
        rows.append(
            FamilyBubbleRow(
                family=fam,
                bubble_ratio_unfilled=plan.bubble_ratio_unfilled,
                bubble_ratio_filled=plan.bubble_ratio_filled,
                fill_fraction=plan.fill.fill_fraction if plan.fill else 0.0,
                throughput=plan.throughput,
                config_label=plan.config_label,
            )
        )
    return rows
