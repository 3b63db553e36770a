"""Experiment drivers, figure data generators and reporting."""

from .figures import (
    BubbleGridCell,
    FamilyBubbleRow,
    LongLayerSeries,
    ablation_throughputs,
    bubble_ratio_by_family,
    bubble_ratio_comparison,
    bubble_ratio_grid,
    longest_bubble_by_stages,
    nt_layer_times,
    top_layer_series,
)
from .report import Comparison, ExperimentReport
from .tables import format_bars, format_table, oom_or, pct
from .throughput import (
    BENCH_PLANNER_OPTIONS,
    CDM_IMAGENET_BATCHES,
    CDM_LSUN_BATCHES,
    SD_BATCHES,
    SweepCell,
    ThroughputSweep,
    cells_to_rows,
    sweep_headers,
)

__all__ = [
    "BubbleGridCell",
    "FamilyBubbleRow",
    "LongLayerSeries",
    "ablation_throughputs",
    "bubble_ratio_by_family",
    "bubble_ratio_comparison",
    "bubble_ratio_grid",
    "longest_bubble_by_stages",
    "nt_layer_times",
    "top_layer_series",
    "Comparison",
    "ExperimentReport",
    "format_bars",
    "format_table",
    "oom_or",
    "pct",
    "BENCH_PLANNER_OPTIONS",
    "CDM_IMAGENET_BATCHES",
    "CDM_LSUN_BATCHES",
    "SD_BATCHES",
    "SweepCell",
    "ThroughputSweep",
    "cells_to_rows",
    "sweep_headers",
]
