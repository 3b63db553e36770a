"""Differential fuzz suite: pruned+cached ``lookahead`` vs its oracle.

The production ``lookahead`` strategy adds three cost levers on top of
the unpruned search kept as ``LookaheadReferenceFill`` in
``tests/oracles/`` (exhaustive expansion, no pruning, no caching):
dominance pruning with an earn-bound filled compensation, shape-keyed
reuse of expansion tables / beam prefixes / final plans, and an
adaptive beam schedule.  None of them may change results:

* on *any* instance where neither search hits a beam cut and the FFC
  enumeration stays within the production strategy's tighter candidate
  cap (32; these tiny instances generate at most ~16 candidates per
  state), the pruned search reports a bit-identical ``leftover_ms``
  (dominance pruning preserves the optimal leftover under
  batch-monotone layer times);
* on instances whose optimal plan is *unique* (the tie-free generator:
  distinct bubble weights, high-entropy layer times, no partial-batch
  rule — partial splits of equal totals tie structurally), the entire
  plan is bit-identical too;
* a warm shape-cache hit — full-shape or beam-prefix — replays the cold
  search's report bit for bit, including telemetry and the filler's
  terminal component states.

The searches are run with a beam cap large enough that the adaptive
narrow width exceeds any reachable state set of these tiny instances,
so no rank cut ever fires and the equivalence claims are exact.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bubble, BubbleFiller, FillShapeCache
from repro.models import ModelSpec
from repro.models.zoo import timed_component
from repro.profiling import ProfileDB
from tests.oracles import LookaheadReferenceFill

#: big enough that the adaptive narrow width (beam / 32) exceeds any
#: reachable state set of the fuzzed instances — no rank cut fires in
#: either strategy, making the searches exactly comparable
BEAM = 1 << 18

#: golden-ratio fraction: distinct integer draws map to layer times and
#: durations whose subset sums never collide in 53-bit floats, so the
#: tie-free instances have unique optima
PHI = (5 ** 0.5 - 1) / 2


def _entropy(k: int, span: float, base: float = 1.0) -> float:
    return base + (k * PHI) % span


def _build(comps_times, name, bubble_specs, *, scale):
    db = ProfileDB.from_layer_times(
        {**comps_times, "bb": [(1.0, 1.0)]},
        batches=(1.0, 64.0),
        trainable={**{k: False for k in comps_times}, "bb": True},
        scale_with_batch=scale,
    )
    backbone = timed_component("bb", [1.0], trainable=True)
    specs = [timed_component(n, [1.0] * len(v)) for n, v in comps_times.items()]
    model = ModelSpec(name, [backbone] + specs, backbone_names=("bb",))
    bubbles, t0 = [], 0.0
    for dur, w in bubble_specs:
        bubbles.append(
            Bubble(start=t0, end=t0 + dur, devices=tuple(range(w)), weight=w)
        )
        t0 += dur + 1.0
    return db, model, bubbles


@st.composite
def general_instances(draw):
    """Any-weights, any-profile-shape instances (ties allowed)."""
    num_comps = draw(st.integers(1, 2))
    layer_counts = [draw(st.integers(1, 3)) for _ in range(num_comps)]
    total_layers = sum(layer_counts)
    ks = draw(
        st.lists(st.integers(1, 10 ** 6), min_size=total_layers,
                 max_size=total_layers, unique=True)
    )
    comps, at = {}, 0
    for c, n in enumerate(layer_counts):
        comps[f"c{c}"] = [(_entropy(ks[at + j], 29.0), 0.0) for j in range(n)]
        at += n
    scale = draw(st.booleans())
    partials = draw(st.booleans())
    nb = draw(st.integers(1, 4))
    dks = draw(st.lists(st.integers(1, 10 ** 6), min_size=nb, max_size=nb,
                        unique=True))
    specs = [
        (_entropy(dk, 55.0, base=2.0), draw(st.integers(1, 4)))
        for dk in dks
    ]
    tag = f"gen{draw(st.integers(0, 10 ** 9))}"
    return comps, tag, specs, scale, partials


@st.composite
def tie_free_instances(draw):
    """Unique-optimum instances: batch-independent entropy times,
    *distinct* bubble weights, partial-batch rule off — every competing
    plan differs in some ``time * weight`` sum, so equal-value plan
    ties (the only thing dominance pruning may re-resolve) cannot
    occur."""
    num_comps = draw(st.integers(1, 2))
    layer_counts = [draw(st.integers(1, 3)) for _ in range(num_comps)]
    total_layers = sum(layer_counts)
    ks = draw(
        st.lists(st.integers(1, 10 ** 6), min_size=total_layers,
                 max_size=total_layers, unique=True)
    )
    comps, at = {}, 0
    for c, n in enumerate(layer_counts):
        comps[f"c{c}"] = [(_entropy(ks[at + j], 29.0), 0.0) for j in range(n)]
        at += n
    nb = draw(st.integers(1, 4))
    weights = draw(st.permutations([1, 2, 3, 4]))[:nb]
    dks = draw(st.lists(st.integers(1, 10 ** 6), min_size=nb, max_size=nb,
                        unique=True))
    specs = [(_entropy(dk, 55.0, base=2.0), w) for dk, w in zip(dks, weights)]
    tag = f"tf{draw(st.integers(0, 10 ** 9))}"
    return comps, tag, specs


def _fill(db, model, bubbles, strategy, *, partials=True, cache=None):
    filler = BubbleFiller(
        db, model, batch=64, strategy=strategy,
        enable_partial_batch=partials, lookahead_beam=BEAM, fill_cache=cache,
    )
    report = filler.fill(bubbles, leftover_devices=2)
    return report, filler


def _fill_oracle(db, model, bubbles, *, partials=True):
    """:func:`_fill` run by the unpruned oracle (not a registered
    strategy, so it is called on the filler directly)."""
    filler = BubbleFiller(
        db, model, batch=64, strategy="lookahead",
        enable_partial_batch=partials, lookahead_beam=BEAM,
    )
    report = LookaheadReferenceFill().fill(filler, bubbles, leftover_devices=2)
    return report, filler


def _normalize(report):
    """Drop the fields the oracle comparison must ignore: the strategy
    name and the search telemetry (the reference does not prune)."""
    return replace(report, strategy="", states_pruned=0, beam_peak=0)


@given(general_instances())
@settings(max_examples=60, deadline=None)
def test_pruned_lookahead_leftover_bit_identical(instance):
    comps, tag, specs, scale, partials = instance
    db, model, bubbles = _build(comps, tag, specs, scale=scale)
    ref, _ = _fill_oracle(db, model, bubbles, partials=partials)
    look, _ = _fill(db, model, bubbles, "lookahead", partials=partials)
    greedy, _ = _fill(db, model, bubbles, "greedy", partials=partials)
    assert look.leftover_ms == ref.leftover_ms  # bit-identical, no approx
    assert look.leftover_ms <= greedy.leftover_ms


@given(tie_free_instances())
@settings(max_examples=60, deadline=None)
def test_pruned_lookahead_plan_bit_identical_on_unique_optima(instance):
    comps, tag, specs = instance
    db, model, bubbles = _build(comps, tag, specs, scale=False)
    ref, ref_filler = _fill_oracle(db, model, bubbles, partials=False)
    look, look_filler = _fill(db, model, bubbles, "lookahead", partials=False)
    assert _normalize(look) == _normalize(ref)
    for name in look_filler.states:
        a, b = look_filler.states[name], ref_filler.states[name]
        assert (a.next_layer, a.remaining) == (b.next_layer, b.remaining)


@given(general_instances())
@settings(max_examples=40, deadline=None)
def test_warm_shape_cache_hits_never_change_reports(instance):
    comps, tag, specs, scale, partials = instance
    db, model, bubbles = _build(comps, tag, specs, scale=scale)
    plain, _ = _fill(db, model, bubbles, "lookahead", partials=partials)
    cache = FillShapeCache()
    cold, cold_filler = _fill(
        db, model, bubbles, "lookahead", partials=partials, cache=cache
    )
    assert cold == plain  # caching never changes a cold search
    assert cache.final_misses == 1 and cache.final_hits == 0
    warm, warm_filler = _fill(
        db, model, bubbles, "lookahead", partials=partials, cache=cache
    )
    assert cache.final_hits == 1
    assert warm == cold  # full FillReport equality, telemetry included
    for name in warm_filler.states:
        a, b = warm_filler.states[name], cold_filler.states[name]
        assert (a.next_layer, a.remaining) == (b.next_layer, b.remaining)


def test_shape_cache_hits_across_shifted_timelines():
    """The cache keys on the (duration, weight) shape: the same bubbles
    at different absolute offsets (a different (S, M, D) timeline with
    the same idle structure) replay the cached plan bit for bit, with
    item/bubble indices rebound to the caller's list."""
    comps = {"c0": [(_entropy(k, 29.0), 0.0) for k in (11213, 7919, 104729)]}
    db, model, bubbles = _build(
        comps, "shift", [(17.0, 2), (23.0, 1), (9.0, 3)], scale=True
    )
    cache = FillShapeCache()
    cold, _ = _fill(db, model, bubbles, "lookahead", cache=cache)
    shifted = [
        Bubble(start=b.start + 1000.0, end=b.end + 1000.0,
               devices=b.devices, weight=b.weight)
        for b in bubbles
    ]
    warm, _ = _fill(db, model, shifted, "lookahead", cache=cache)
    assert cache.final_hits == 1
    assert warm == cold


def test_beam_prefix_resume_matches_cold_search():
    """Two shapes sharing a bubble prefix: the second fill resumes from
    the stored beam snapshot and must match a cache-less cold search
    exactly.  (Prefix snapshots are keyed by the timeline's distinct
    weight set too — the dominance earn bound depends on it — so the
    tail here keeps the weight set unchanged.)"""
    rng = random.Random(20260730)
    comps = {
        "c0": [(_entropy(rng.randrange(1, 10 ** 6), 29.0), 0.0)
               for _ in range(3)],
        "c1": [(_entropy(rng.randrange(1, 10 ** 6), 29.0), 0.0)
               for _ in range(2)],
    }
    prefix = [(19.0, 2), (31.0, 1), (11.0, 2)]
    for tail in [(7.5, 1), (27.0, 2), (44.0, 1)]:
        cache = FillShapeCache()
        db, model, bubbles_a = _build(comps, f"pre{tail}", prefix + [(13.0, 2)],
                                      scale=True)
        _fill(db, model, bubbles_a, "lookahead", cache=cache)
        _, _, bubbles_b = _build(comps, f"pre{tail}", prefix + [tail],
                                 scale=True)
        warm, warm_filler = _fill(db, model, bubbles_b, "lookahead",
                                  cache=cache)
        cold, cold_filler = _fill(db, model, bubbles_b, "lookahead")
        assert warm == cold
        for name in warm_filler.states:
            a, b = warm_filler.states[name], cold_filler.states[name]
            assert (a.next_layer, a.remaining) == (b.next_layer, b.remaining)


def test_shape_cache_contexts_never_alias():
    """Different batches / partial-batch settings / beam caps must not
    share cached plans even on identical bubble shapes."""
    comps = {"c0": [(_entropy(k, 29.0), 0.0) for k in (337, 7919)]}
    db, model, bubbles = _build(comps, "alias", [(21.0, 2), (13.0, 1)],
                                scale=True)
    cache = FillShapeCache()
    a, _ = _fill(db, model, bubbles, "lookahead", cache=cache)
    filler = BubbleFiller(
        db, model, batch=32, strategy="lookahead",
        enable_partial_batch=True, lookahead_beam=BEAM, fill_cache=cache,
    )
    b = filler.fill(bubbles, leftover_devices=2)
    assert cache.final_hits == 0 and cache.final_misses == 2
    _fill(db, model, bubbles, "lookahead", partials=False, cache=cache)
    assert cache.final_hits == 0 and cache.final_misses == 3


def test_shape_cache_keys_on_exact_durations():
    """The shape cache changes nothing: reports match a cache-less fill
    bit for bit, and near-identical durations still key separately (no
    false hits)."""
    comps = {"c0": [(_entropy(k, 29.0), 0.0) for k in (337, 7919)]}
    db, model, bubbles = _build(comps, "q0", [(17.0, 2), (23.0, 1)],
                                scale=True)
    plain, _ = _fill(db, model, bubbles, "lookahead")
    cache = FillShapeCache()
    exact, _ = _fill(db, model, bubbles, "lookahead", cache=cache)
    assert exact == plain
    # a microsecond-scale perturbation is a distinct exact key
    nudged = [
        Bubble(start=b.start, end=b.end + 1e-6,
               devices=b.devices, weight=b.weight)
        for b in bubbles
    ]
    _fill(db, model, nudged, "lookahead", cache=cache)
    assert cache.final_hits == 0 and cache.final_misses == 2


def test_shape_cache_clear_resets_stores():
    comps = {"c0": [(_entropy(9973, 29.0), 0.0)]}
    db, model, bubbles = _build(comps, "clr", [(21.0, 2)], scale=True)
    cache = FillShapeCache()
    _fill(db, model, bubbles, "lookahead", cache=cache)
    assert cache.finals and cache.final_misses == 1
    cache.clear()
    assert not cache.finals and not cache.prefixes and not cache.expansions
    assert cache.final_hits == 0 and cache.final_misses == 0
    report, _ = _fill(db, model, bubbles, "lookahead", cache=cache)
    assert cache.final_misses == 1
    plain, _ = _fill(db, model, bubbles, "lookahead")
    assert report == plain


def test_shape_cache_stores_stay_bounded():
    """The three stores are LRU-capped: a long sweep of distinct shapes
    cannot grow them past their limits."""
    comps = {"c0": [(_entropy(k, 29.0), 0.0) for k in (337, 7919)]}
    cache = FillShapeCache(max_expansions=32, max_prefixes=8, max_finals=4)
    for i in range(12):
        db, model, bubbles = _build(
            comps, "bound", [(15.0 + i, 2), (9.0 + i, 1)], scale=True
        )
        _fill(db, model, bubbles, "lookahead", cache=cache)
    assert len(cache.finals) <= 4
    assert len(cache.prefixes) <= 8
    assert len(cache.expansions) <= 32


@pytest.mark.parametrize("seed", range(12))
def test_seeded_differential_matrix(seed):
    """A deterministic (non-hypothesis) slice of the differential
    property, run every time at higher instance sizes than hypothesis
    would typically settle on."""
    rng = random.Random(seed * 7919 + 13)
    comps = {}
    for c in range(rng.randint(1, 3)):
        comps[f"c{c}"] = [
            (_entropy(rng.randrange(1, 10 ** 6), 29.0), 0.0)
            for _ in range(rng.randint(1, 3))
        ]
    specs = []
    for _ in range(rng.randint(1, 5)):
        specs.append(
            (_entropy(rng.randrange(1, 10 ** 6), 55.0, base=2.0),
             rng.randint(1, 4))
        )
    partials = bool(seed % 2)
    scale = bool((seed // 2) % 2)
    db, model, bubbles = _build(comps, f"mat{seed}", specs, scale=scale)
    ref, _ = _fill_oracle(db, model, bubbles, partials=partials)
    look, _ = _fill(db, model, bubbles, "lookahead", partials=partials)
    greedy, _ = _fill(db, model, bubbles, "greedy", partials=partials)
    assert look.leftover_ms == ref.leftover_ms
    assert look.leftover_ms <= greedy.leftover_ms
