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

Both table kernels drop whole transition batches of a two-coordinate
stream (every CDM one, and the 1F1B DP's under default pricing) before
they expand them (:func:`_prefilter_batches`); the batches kept,
expanded and folded by the staircase, must leave exactly the full
fold's survivors, and every target must keep a batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.partition_kernels as kernels
from repro.core.partition_kernels import (
    _expand_batches,
    _peel_drop,
    _prefilter_batches,
    _staircase_drop,
)
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


@st.composite
def batch_streams(draw):
    """Parent frontiers and transition batches: 1-5 parent Pareto sets
    of 1-8 drawn points each (folded through ``pareto_insert``, as a DP
    stage leaves them) and 1-5 targets of 1-12 batches, each a parent
    and a slice cost ``(WS, YS)``."""
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    fronts = []
    for _ in range(draw(st.integers(1, 5))):
        front: list[tuple] = []
        for point in draw(
            st.lists(st.tuples(values, values), min_size=1, max_size=8)
        ):
            pareto_insert(front, point, 2)
        fronts.append(front)
    tb_counts = np.asarray(
        draw(st.lists(st.integers(1, 12), min_size=1, max_size=5)),
        dtype=np.int64,
    )
    nb = int(tb_counts.sum())
    P_b = draw(
        hnp.arrays(np.int64, nb, elements=st.integers(0, len(fronts) - 1))
    )
    WS = draw(hnp.arrays(np.float64, nb, elements=values))
    YS = draw(hnp.arrays(np.float64, nb, elements=values))
    return fronts, P_b, WS, YS, tb_counts


@settings(max_examples=300, deadline=None)
@given(batch_streams())
def test_batch_prefilter_keeps_the_full_folds_survivors(case):
    fronts, P_b, WS, YS, tb_counts = case
    EW = np.asarray([e[0] for front in fronts for e in front])
    EY = np.asarray([e[1] for front in fronts for e in front])
    ecounts = np.asarray([len(front) for front in fronts], dtype=np.int64)
    tb_starts = np.cumsum(tb_counts) - tb_counts
    t_of_b = np.repeat(np.arange(len(tb_counts)), tb_counts)

    def candidates(kb):
        bidx, pil, eidx, counts = _expand_batches(P_b, ecounts, tb_starts, kb)
        w = np.maximum(EW[eidx], WS[bidx])
        y = np.maximum(EY[eidx], YS[bidx])
        return (w, y), counts, list(zip(bidx.tolist(), pil.tolist()))

    def survivors(cols, ids, drop):
        w, y = (c.tolist() for c in cols)
        return [
            (ids[i], w[i].hex(), y[i].hex())
            for i in np.flatnonzero(~drop).tolist()
        ]

    kb = _prefilter_batches(P_b, WS, YS, EW, EY, ecounts, t_of_b, tb_starts)
    assert np.all(np.diff(kb) > 0)
    assert set(t_of_b[kb].tolist()) == set(range(len(tb_counts)))
    cols, counts, ids = candidates(kb)
    got = survivors(cols, ids, _staircase_drop(*cols, counts))
    full, full_counts, full_ids = candidates(np.arange(len(P_b)))
    want = survivors(full, full_ids, sequential_drop(full, full_counts))
    assert got == want
