"""Fig. 13c: CDM-LSUN throughput — DiffusionPipe's bidirectional
pipelines vs sequential/parallel data-parallel CDM training.

Paper shape: DiffusionPipe is comparable to DeepSpeed-P (little NT work
to fill bubbles with; backbones of similar size), but keeps training at
batch sizes where the data-parallel strategies go out of memory.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow

from repro.harness import (
    CDM_LSUN_BATCHES,
    ThroughputSweep,
    cells_to_rows,
    format_table,
    sweep_headers,
)
from repro.models.zoo import cdm_lsun


def _sweep():
    return ThroughputSweep(
        cdm_lsun, machine_counts=(1, 2, 4, 8), batches=CDM_LSUN_BATCHES
    ).run()


def test_fig13c_cdm_lsun(benchmark):
    cells = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            sweep_headers(cells),
            cells_to_rows(cells),
            title="Fig. 13c - CDM-LSUN throughput (samples/s)",
        )
    )
    by = {(c.system, c.gpus, c.batch): c for c in cells}

    def thpt(system, gpus, batch):
        c = by[(system, gpus, batch)]
        return c.throughput if not c.oom else 0.0

    for gpus, batches in CDM_LSUN_BATCHES.items():
        for b in batches:
            dp = thpt("DiffusionPipe", gpus, b)
            p = thpt("DeepSpeed-P", gpus, b)
            if p > 0:
                # Comparable to DeepSpeed-P.  At small multi-node
                # batches DeepSpeed-P's topology advantage (each
                # backbone confined to fewer machines) wins by up to
                # ~20 %; at 64 GPUs / large batches DiffusionPipe wins.
                assert dp / p > 0.75, (gpus, b, dp, p)
    # DiffusionPipe reaches batch sizes where both -P strategies OOM.
    largest = CDM_LSUN_BATCHES[8][-1]
    assert by[("DeepSpeed-P", 8, largest)].oom
    assert not by[("DiffusionPipe", 8, largest)].oom
