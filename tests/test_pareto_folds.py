"""The array kernels' Pareto folds against the sequential fold.

The partition DPs keep each state's whole Pareto frontier, and the
array kernels settle a state by one drop mask over its candidate
stream: :func:`_staircase_drop` when the frontier has two coordinates,
:func:`_peel_drop` when it has three.  Each mask must be exactly the
set of candidates that folding the stream through the oracles'
:func:`pareto_insert` in arrival order drops, ties included: a
candidate equal to an earlier one goes, and ``-0.0`` equals ``0.0``.
The DP differentials (``test_partition_kernels.py``) reach the folds
only on streams the DPs produce; these tests feed them directly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.partition_kernels as kernels
from repro.core.partition_kernels import _peel_drop, _staircase_drop
from tests.oracles import pareto_insert

#: values that force ties: signed zeros, -inf and repeats
TIES = st.sampled_from([-0.0, 0.0, float("-inf"), 1.0, 2.0, 3.0])
#: continuous values, also with signed zeros
CONTINUOUS = st.floats(-1e3, 1e3)
VALUES = {
    "ties": TIES,
    "continuous": CONTINUOUS,
    "mixed": st.one_of(TIES, CONTINUOUS),
}


@st.composite
def streams(draw, dims):
    """``(columns, counts)``: 0-6 contiguous segments of 0-150
    candidates each, in arrival order, ``dims`` value columns."""
    counts = draw(st.lists(st.integers(0, 150), max_size=6))
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    n = sum(counts)
    cols = tuple(
        draw(hnp.arrays(np.float64, n, elements=values)) for _ in range(dims)
    )
    return cols, np.asarray(counts, dtype=np.int64)


def sequential_drop(cols, counts) -> np.ndarray:
    """The drop mask of folding each segment through ``pareto_insert``
    in arrival order."""
    rows = list(zip(*(c.tolist() for c in cols)))
    drop = np.ones(len(rows), dtype=bool)
    start = 0
    for count in counts.tolist():
        frontier: list[tuple] = []
        for i in range(start, start + count):
            pareto_insert(frontier, (*rows[i], i), len(cols))
        for entry in frontier:
            drop[entry[-1]] = False
        start += count
    return drop


@settings(max_examples=300, deadline=None)
@given(streams(3))
def test_peel_drop_matches_the_sequential_fold(case):
    cols, counts = case
    got = _peel_drop(*cols, counts)
    assert got.tolist() == sequential_drop(cols, counts).tolist()


@settings(max_examples=300, deadline=None)
@given(streams(2))
def test_staircase_drop_matches_the_sequential_fold(case):
    cols, counts = case
    got = _staircase_drop(*cols, counts)
    assert got.tolist() == sequential_drop(cols, counts).tolist()


def test_staircase_bucket_prefilter_matches_the_sequential_fold(monkeypatch):
    """A stream of more than 100,000 candidates sends
    ``_staircase_drop`` through its bucket prefilter, which the drawn
    streams are too small to reach.  The prefilter's survivors recurse
    into a second call, which proves it ran and killed candidates."""
    rng = np.random.default_rng(2024)
    w = [rng.random(60_000), np.round(rng.random(45_000) * 400) / 4]
    y = [rng.random(60_000), np.round(rng.random(45_000) * 400) / 4]
    pool = np.array([-0.0, 0.0, float("-inf"), 1.0, 2.0, 3.0])
    w.append(pool[rng.integers(0, len(pool), 20_000)])
    y.append(pool[rng.integers(0, len(pool), 20_000)])
    counts = np.asarray([len(c) for c in w], dtype=np.int64)
    cols = (np.concatenate(w), np.concatenate(y))
    calls = []
    fold = kernels._staircase_drop

    def counted(*args):
        calls.append(len(args[0]))
        return fold(*args)

    monkeypatch.setattr(kernels, "_staircase_drop", counted)
    got = kernels._staircase_drop(*cols, counts)
    assert len(calls) == 2 and calls[1] < calls[0] == 125_000
    assert got.tolist() == sequential_drop(cols, counts).tolist()
