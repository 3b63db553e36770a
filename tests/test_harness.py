"""Harness (tables / report / figure generators) tests."""

import pytest

from repro.harness import (
    ExperimentReport,
    format_bars,
    format_table,
    oom_or,
    pct,
)
from repro.harness.throughput import SweepCell, cells_to_rows, sweep_headers


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    assert len(lines) == 5


def test_format_bars():
    out = format_bars(["x", "yy"], [10.0, 5.0], width=10, unit="ms")
    lines = out.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5
    assert "10.0ms" in lines[0]
    oom = format_bars(["z"], [float("inf")])
    assert "(oom)" in oom
    with pytest.raises(ValueError):
        format_bars(["a"], [1.0, 2.0])


def test_pct_and_oom_or():
    assert pct(0.1234) == "12.3%"
    assert oom_or(float("inf")) == "OOM"
    assert oom_or(0.0) == "OOM"
    assert oom_or(123.4) == "123"


def test_experiment_report_deviation():
    rep = ExperimentReport("X")
    rep.add("s", "m", paper=2.0, measured=2.2)
    rep.add("s2", "m", paper=None, measured=5.0)
    assert rep.comparisons[0].deviation == pytest.approx(0.1)
    assert rep.comparisons[1].deviation is None
    assert rep.max_abs_deviation() == pytest.approx(0.1)
    table = rep.to_table()
    assert "+10.0%" in table
    assert "X" in table


def test_cdm_sweep_heterogeneous_flag():
    """``ThroughputSweep(heterogeneous=True)`` threads per-stage
    replication into the planner options (it used to be a documented
    no-op for cascaded models) and still produces DiffusionPipe cells."""
    from repro.harness.throughput import ThroughputSweep
    from repro.models.zoo import cdm_lsun

    sweep = ThroughputSweep(
        cdm_lsun,
        machine_counts=(1,),
        batches={8: (128,)},
        heterogeneous=True,
    )
    assert sweep.planner_options.heterogeneous_replication
    cells = sweep.run()
    dp = [c for c in cells if c.system == "DiffusionPipe"]
    assert dp and all(c.throughput > 0 for c in dp)


def test_cells_pivot():
    cells = [
        SweepCell("A", 8, 64, 100.0, False),
        SweepCell("B", 8, 64, 0.0, True),
        SweepCell("A", 8, 128, 120.0, False),
        SweepCell("B", 8, 128, 110.0, False),
    ]
    headers = sweep_headers(cells)
    assert headers == ["GPUs", "Batch", "A", "B"]
    rows = cells_to_rows(cells)
    assert rows[0] == ["8", "64", "100", "OOM"]
    assert rows[1] == ["8", "128", "120", "110"]
