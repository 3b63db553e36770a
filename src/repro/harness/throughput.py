"""Throughput sweep drivers shared by the Fig. 13 benchmarks.

One :class:`ThroughputSweep` evaluates every system of §6 on a grid of
cluster scales and global batch sizes, returning rows ready for table
rendering.  The planner search space is restricted to the paper's
practical range (pipeline groups within a machine, up to 4 stages) to
keep benchmark runtimes reasonable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from ..baselines import (
    CDMStrategyConfig,
    DataParallelBaseline,
    GPipeBaseline,
    ParallelCDMBaseline,
    SequentialCDMBaseline,
    SPPBaseline,
    Zero3Baseline,
)
from ..cluster.topology import ClusterSpec, p4de_cluster
from ..core.planner import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from ..errors import ConfigurationError, ReproError
from ..models.graph import ModelSpec
from ..profiling.profiler import Profiler
from ..profiling.records import ProfileDB

#: planner search space used by all Fig. 13 benchmarks
BENCH_PLANNER_OPTIONS = PlannerOptions(
    max_stages=4,
    micro_batch_counts=(1, 2, 3, 4, 6, 8),
    group_sizes=(2, 4, 8),
)

#: the paper's per-scale batch grids (Fig. 13a/b)
SD_BATCHES: Mapping[int, tuple[int, ...]] = {
    8: (64, 128, 256, 384),
    16: (128, 256, 512, 768),
    32: (256, 512, 1024, 1536),
    64: (512, 1024, 2048, 3072),
}

#: Fig. 13c batch grids (CDM-LSUN)
CDM_LSUN_BATCHES: Mapping[int, tuple[int, ...]] = {
    8: (128, 256, 384, 512),
    16: (256, 512, 768, 1024),
    32: (512, 1024, 1536, 2048),
    64: (1024, 2048, 3072, 4096),
}

#: Fig. 13d batch grids (CDM-ImageNet)
CDM_IMAGENET_BATCHES: Mapping[int, tuple[int, ...]] = {
    8: (64, 128, 256, 384),
    16: (128, 256, 512, 768),
    32: (256, 512, 1024, 1536),
    64: (512, 1024, 2048, 3072),
}


@dataclass(frozen=True)
class SweepCell:
    """One (system, scale, batch) measurement."""

    system: str
    gpus: int
    batch: int
    throughput: float      # samples/s; 0.0 marks OOM / infeasible
    oom: bool
    label: str = ""


def _cell(system: str, gpus: int, batch: int, throughput: float, oom: bool,
          label: str = "") -> SweepCell:
    return SweepCell(system=system, gpus=gpus, batch=batch,
                     throughput=0.0 if oom else throughput, oom=oom, label=label)


class ThroughputSweep:
    """Evaluates DiffusionPipe and the §6 baselines over a scale x batch
    grid.

    The baselines follow the model's backbone count: a single backbone
    runs against SPP, GPipe, DeepSpeed and ZeRO-3 (Fig. 13a/b), a
    cascade against the sequential and parallel data-parallel CDM
    strategies, with and without ZeRO-3 (the -S/-P columns of Fig.
    13c/d).
    """

    def __init__(
        self,
        model_factory: Callable[[], ModelSpec],
        *,
        machine_counts: Sequence[int] = (1, 2, 4, 8),
        batches: Mapping[int, tuple[int, ...]] | None = None,
        planner_options: PlannerOptions = BENCH_PLANNER_OPTIONS,
        heterogeneous: bool = False,
        fill_strategy: str | None = None,
        schedule: str | None = None,
        caches: PlannerCaches | None = None,
    ):
        self.model = model_factory()
        self.machine_counts = tuple(machine_counts)
        self.batches = dict(batches or SD_BATCHES)
        # ``heterogeneous`` lets the planner (and SPP, which shares its
        # options) evaluate non-divisible (S, D) combos with per-stage
        # replica counts instead of skipping them (a cascade's
        # co-located down/up stages share one count per chain
        # position); ``fill_strategy`` swaps the bubble-filling policy
        # and ``schedule`` the pipeline schedule family (registry
        # names) for the whole sweep.
        if heterogeneous:
            planner_options = replace(
                planner_options, heterogeneous_replication=True
            )
        if fill_strategy is not None:
            planner_options = replace(
                planner_options, fill_strategy=fill_strategy
            )
        if schedule is not None:
            planner_options = replace(planner_options, schedule=schedule)
        self.planner_options = planner_options
        # Layer profiles depend only on the device model, not the scale.
        self.profile: ProfileDB = Profiler(p4de_cluster(1)).profile(self.model)
        # One memo store for the whole sweep: at each scale the planner
        # and the SPP baseline reuse each other's partitions and comm
        # costs (cache keys include the full ClusterSpec, so entries
        # from different scales never alias).  Callers may pass a shared
        # ``caches`` (e.g. a snapshot-warmed one) to reuse work across
        # sweeps.
        self.caches = caches if caches is not None else PlannerCaches()

    def _baselines(self, cluster: ClusterSpec) -> list:
        """The baselines of one scale, in column order."""
        model, profile = self.model, self.profile
        if len(model.backbone_names) == 1:
            return [
                SPPBaseline(model, cluster, profile,
                            options=self.planner_options, caches=self.caches),
                GPipeBaseline(model, cluster, profile),
                DataParallelBaseline(model, cluster, profile),
                Zero3Baseline(model, cluster, profile),
            ]
        return [
            strategy(model, cluster, profile, CDMStrategyConfig(zero3=zero3))
            for zero3 in (False, True)
            for strategy in (SequentialCDMBaseline, ParallelCDMBaseline)
        ]

    def run(self) -> list[SweepCell]:
        """Evaluate DiffusionPipe and the baselines at every grid point."""
        cells: list[SweepCell] = []
        for machines in self.machine_counts:
            cluster = p4de_cluster(machines)
            gpus = cluster.world_size
            planner = DiffusionPipePlanner(
                self.model, cluster, self.profile, options=self.planner_options,
                caches=self.caches,
            )
            baselines = self._baselines(cluster)
            for batch in self.batches[gpus]:
                try:
                    ev = planner.plan(batch)
                    cells.append(
                        _cell("DiffusionPipe", gpus, batch, ev.plan.throughput,
                              False, ev.plan.config_label)
                    )
                except ConfigurationError:
                    cells.append(_cell("DiffusionPipe", gpus, batch, 0.0, True))
                for engine in baselines:
                    try:
                        res = engine.run(batch)
                        cells.append(
                            _cell(engine.name, gpus, batch, res.throughput, res.oom)
                        )
                    except ReproError:
                        cells.append(_cell(engine.name, gpus, batch, 0.0, True))
        return cells


def cells_to_rows(cells: Sequence[SweepCell]) -> list[list[str]]:
    """Pivot sweep cells into (gpus, batch) rows with one system per column."""
    systems = list(dict.fromkeys(c.system for c in cells))
    keys = sorted({(c.gpus, c.batch) for c in cells})
    by_key = {(c.system, c.gpus, c.batch): c for c in cells}
    rows = []
    for gpus, batch in keys:
        row = [str(gpus), str(batch)]
        for system in systems:
            c = by_key.get((system, gpus, batch))
            if c is None:
                row.append("-")
            elif c.oom:
                row.append("OOM")
            else:
                row.append(f"{c.throughput:.0f}")
        rows.append(row)
    return rows


def sweep_headers(cells: Sequence[SweepCell]) -> list[str]:
    systems = list(dict.fromkeys(c.system for c in cells))
    return ["GPUs", "Batch", *systems]
