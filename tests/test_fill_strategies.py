"""Fill-strategy registry and lookahead-policy tests (§5 ablation surface)."""

import pytest

from repro.core import (
    Bubble,
    BubbleFiller,
    PlannerOptions,
    fill_strategy_names,
    get_fill_strategy,
    register_fill_strategy,
)
from repro.core.fill_strategies import FILL_STRATEGIES, LookaheadFill
from repro.core.filling import (
    BubbleFill,
    ComponentState,
    _candidate_items,
    apply_fill,
    full_batch_candidates,
    valid_partial_samples,
)
from repro.core.plan import FillItem
from repro.errors import ConfigurationError, FillingError
from repro.models import ModelSpec
from repro.models.zoo import timed_component, uniform_model
from repro.profiling import ProfileDB
from tests.oracles import LookaheadReferenceFill


def _bubble(duration, weight=1, start=0.0):
    return Bubble(start=start, end=start + duration,
                  devices=tuple(range(weight)), weight=weight)


def _nt_model(name, comps):
    """A model with one trainable backbone and the given NT components
    (``comps``: name -> layer count)."""
    backbone = timed_component("bb", [1.0], trainable=True)
    specs = [timed_component(n, [1.0] * k) for n, k in comps.items()]
    return ModelSpec(name, [backbone] + specs, backbone_names=("bb",))


def _db(times_by_comp, scale=True):
    return ProfileDB.from_layer_times(
        {**times_by_comp, "bb": [(1.0, 1.0)]},
        batches=(1.0, 64.0),
        trainable={**{k: False for k in times_by_comp}, "bb": True},
        scale_with_batch=scale,
    )


# -- registry --------------------------------------------------------------------


def test_registry_names_and_lookup():
    assert set(fill_strategy_names()) == {"greedy", "lookahead", "none"}
    for name in fill_strategy_names():
        assert get_fill_strategy(name).name == name
    with pytest.raises(FillingError):
        get_fill_strategy("nope")


def test_registry_extension_point():
    @register_fill_strategy("_test_only")
    class _TestFill:
        name = "_test_only"

        def fill(self, filler, bubbles, leftover_devices):
            return filler.build_report(bubbles, (), 0.0, leftover_devices)

    try:
        assert get_fill_strategy("_test_only").name == "_test_only"
        # A custom strategy drives BubbleFiller.fill like the built-ins.
        model = uniform_model()
        from repro.cluster import single_node
        from repro.profiling import Profiler

        profile = Profiler(single_node(8)).profile(model)
        report = BubbleFiller(
            profile, model, batch=64, strategy="_test_only"
        ).fill([_bubble(100.0)], leftover_devices=2)
        assert report.strategy == "_test_only"
        assert report.items == ()
    finally:
        del FILL_STRATEGIES["_test_only"]


def test_planner_options_validate_strategy():
    with pytest.raises(ConfigurationError):
        PlannerOptions(fill_strategy="nope")
    assert PlannerOptions(fill_strategy="lookahead").fill_strategy == "lookahead"


# -- none ------------------------------------------------------------------------


def test_none_strategy_fills_nothing(uniform, uniform_profile):
    filler = BubbleFiller(uniform_profile, uniform, batch=64, strategy="none")
    report = filler.fill([_bubble(1e4)], leftover_devices=2)
    assert report.items == ()
    assert report.strategy == "none"
    assert report.filled_device_time_ms == 0.0
    assert report.leftover_ms == pytest.approx(
        BubbleFiller(uniform_profile, uniform, batch=64).leftover_ms(2)
    )
    assert len(report.per_bubble) == 1
    assert report.per_bubble[0].filled_ms == 0.0
    assert report.per_bubble[0].utilization == 0.0


# -- greedy (strategy form == seed behaviour) -----------------------------------


def test_greedy_strategy_reports_per_bubble_utilization(uniform, uniform_profile):
    filler = BubbleFiller(uniform_profile, uniform, batch=64)
    bubbles = [_bubble(9.0), _bubble(1e4, start=100.0)]
    report = filler.fill(bubbles, leftover_devices=2)
    assert report.strategy == "greedy"
    assert report.complete
    assert len(report.per_bubble) == 2
    by_index = {u.bubble_index: u for u in report.per_bubble}
    # The first bubble is nearly full, the huge one barely used.
    assert by_index[0].utilization > 0.8
    assert by_index[1].utilization < 0.1
    # Utilization accounting matches the items placed per bubble.
    for u in report.per_bubble:
        placed = sum(i.time_ms for i in report.items
                     if i.bubble_index == u.bubble_index)
        assert placed == pytest.approx(u.filled_ms)


def test_dropped_candidates_surface_in_report():
    comps = {f"c{i}": 12 for i in range(4)}
    db = _db({f"c{i}": [(0.5, 0.0)] * 12 for i in range(4)}, scale=False)
    model = _nt_model("many", comps)
    filler = BubbleFiller(db, model, batch=64, max_candidates=64)
    report = filler.fill([_bubble(50.0)], leftover_devices=2)
    assert report.candidates_dropped > 0


def test_candidate_cap_tie_break_deterministic():
    """At the cap, equal-time candidates are cut by lexicographic counts
    — independent of enumeration order."""
    db = _db({"a": [(2.0, 0.0)] * 4, "b": [(2.0, 0.0)] * 4}, scale=False)
    states = [
        ComponentState(name=n, num_layers=4, batch=64.0) for n in ("a", "b")
    ]
    cands, dropped = full_batch_candidates(db, states, bubble_ms=8.0,
                                           idle_devices=1, max_candidates=5)
    assert dropped > 0
    # Kept: sorted by (-time, counts); the time-maximal candidates first.
    times = [c.time_ms for c in cands]
    assert times == sorted(times, reverse=True)
    for a, b in zip(cands, cands[1:]):
        if a.time_ms == b.time_ms:
            assert a.counts < b.counts


# -- lookahead -------------------------------------------------------------------


def _exhaustive_leftover(profile, comp_names, batch, bubbles, d_left):
    """Brute force over the per-bubble action space (all FFC candidates
    x all partial sample counts), returning the minimal leftover."""
    names = list(comp_names)

    def leftover(states, d):
        total = 0.0
        for n in names:
            s = states[n]
            off = 0
            while s.next_layer + off < s.num_layers:
                total += profile.fwd_ms(
                    n, s.next_layer + off, s.layer_batch(off) / d
                )
                off += 1
        return total

    order = sorted(range(len(bubbles)), key=lambda i: bubbles[i].start)
    best = [float("inf")]

    def rec(pos, states):
        if pos == len(order):
            best[0] = min(best[0], leftover(states, d_left))
            return
        b = bubbles[order[pos]]
        ready = [states[n] for n in names if not states[n].done]
        if not ready:
            rec(pos + 1, states)
            return
        cands, _ = full_batch_candidates(profile, ready, b.duration, b.weight)
        for cand in cands:
            options = [None]
            budget = b.duration - cand.time_ms
            for h, comp in enumerate(ready):
                layer = comp.next_layer + cand.counts[h]
                if layer >= comp.num_layers:
                    continue
                rem = comp.layer_batch(cand.counts[h])
                for samples in valid_partial_samples(comp.batch, b.weight, rem):
                    t = profile.fwd_ms(comp.name, layer, samples / b.weight)
                    if t <= budget + 1e-9:
                        options.append((h, layer, samples, t))
            for partial in options:
                ns = {
                    n: ComponentState(
                        n, states[n].num_layers, batch,
                        states[n].next_layer, states[n].remaining,
                    )
                    for n in names
                }
                items = _candidate_items(profile, ready, cand, b.weight, 0)
                if partial is not None:
                    h, layer, samples, t = partial
                    items.append(
                        FillItem(ready[h].name, layer, samples, t, 0, True)
                    )
                apply_fill(ns, BubbleFill(0, tuple(items), 0.0))
                rec(pos + 1, ns)
        rec(pos + 1, states)

    init = {n: ComponentState(n, profile.num_layers(n), batch) for n in names}
    rec(0, init)
    return best[0]


def test_lookahead_beats_greedy_on_known_trap():
    """A two-component instance where the myopic per-bubble maximum
    strands work: lookahead must find the strictly better plan."""
    times = {
        "c0": [(22.498392185833623, 0.0)] * 2,
        "c1": [(66.48879872708376, 0.0)] * 3,
    }
    db = _db(times)
    model = _nt_model("trap", {"c0": 2, "c1": 3})
    bubbles = [
        _bubble(29.902923613609424, weight=1, start=0.0),
        _bubble(42.21234063360121, weight=2, start=40.0),
        _bubble(28.559271671039284, weight=2, start=90.0),
    ]
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )
    look = BubbleFiller(db, model, batch=64, strategy="lookahead").fill(
        bubbles, leftover_devices=2
    )
    assert look.strategy == "lookahead"
    assert look.leftover_ms < greedy.leftover_ms - 1e-6
    exhaustive = _exhaustive_leftover(db, ["c0", "c1"], 64.0, bubbles, 2)
    assert look.leftover_ms == pytest.approx(exhaustive, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_lookahead_matches_exhaustive_on_tiny_instances(seed):
    import random

    rng = random.Random(seed)
    comps = {}
    for c in range(rng.randint(1, 2)):
        comps[f"c{c}"] = [
            (rng.choice([4, 8, 12, 16, 24, 32, 64]) * rng.uniform(0.2, 1.2), 0.0)
        ] * rng.randint(1, 3)
    db = _db(comps)
    model = _nt_model(f"tiny{seed}", {n: len(v) for n, v in comps.items()})
    t = 0.0
    bubbles = []
    for _ in range(rng.randint(1, 3)):
        dur = rng.uniform(5, 60)
        w = rng.randint(1, 4)
        bubbles.append(_bubble(dur, weight=w, start=t))
        t += dur + 5
    look = BubbleFiller(db, model, batch=64, strategy="lookahead").fill(
        bubbles, leftover_devices=2
    )
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )
    exhaustive = _exhaustive_leftover(db, list(comps), 64.0, bubbles, 2)
    assert look.leftover_ms <= greedy.leftover_ms + 1e-12
    assert look.leftover_ms == pytest.approx(exhaustive, abs=1e-6)


def test_lookahead_respects_dependencies(two_encoder, two_encoder_profile):
    """encoder_b never runs before encoder_a completes, as in greedy."""
    filler = BubbleFiller(
        two_encoder_profile, two_encoder, batch=64, strategy="lookahead"
    )
    report = filler.fill(
        [_bubble(1e4, start=0.0), _bubble(1e4, start=2e4)], leftover_devices=2
    )
    assert report.complete
    a_done = max(
        k for k, it in enumerate(report.items) if it.component == "encoder_a"
    )
    b_first = min(
        k for k, it in enumerate(report.items) if it.component == "encoder_b"
    )
    assert a_done < b_first


def test_lookahead_beam_cut_still_not_worse_than_greedy():
    """With a beam of 1 the search degenerates, but the greedy-baseline
    comparison keeps the guarantee."""
    times = {"c0": [(22.5, 0.0)] * 2, "c1": [(66.5, 0.0)] * 3}
    db = _db(times)
    model = _nt_model("beam1", {"c0": 2, "c1": 3})
    bubbles = [_bubble(30.0), _bubble(42.0, weight=2, start=40.0),
               _bubble(28.5, weight=2, start=90.0)]
    strategy = LookaheadFill()
    strategy.beam_width = 1
    filler = BubbleFiller(db, model, batch=64, strategy="lookahead")
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )
    report = strategy.fill(filler, bubbles, leftover_devices=2)
    assert report.leftover_ms <= greedy.leftover_ms
    assert report.strategy == "lookahead"
    # Whichever path produced the plan (beam or greedy fallback), the
    # filler's states must be consistent with the returned report.
    assert filler.leftover_ms(2) == report.leftover_ms


def test_planner_options_validate_lookahead_beam(uniform, uniform_profile):
    with pytest.raises(ConfigurationError):
        PlannerOptions(lookahead_beam=0)
    assert PlannerOptions(lookahead_beam=8).lookahead_beam == 8
    with pytest.raises(FillingError):
        BubbleFiller(uniform_profile, uniform, batch=64, lookahead_beam=0)


def test_lookahead_beam_threads_from_filler():
    """``BubbleFiller.lookahead_beam`` overrides the strategy default
    for ``lookahead`` and its oracle (a beam of 1 degenerates the
    search, but the greedy floor keeps the guarantee)."""
    times = {"c0": [(22.5, 0.0)] * 2, "c1": [(66.5, 0.0)] * 3}
    db = _db(times)
    model = _nt_model("beamk", {"c0": 2, "c1": 3})
    bubbles = [_bubble(30.0), _bubble(42.0, weight=2, start=40.0),
               _bubble(28.5, weight=2, start=90.0)]
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )

    def filler():
        return BubbleFiller(
            db, model, batch=64, strategy="lookahead", lookahead_beam=1
        )

    for report in (
        filler().fill(bubbles, leftover_devices=2),
        LookaheadReferenceFill().fill(filler(), bubbles, leftover_devices=2),
    ):
        assert report.leftover_ms <= greedy.leftover_ms


def test_lookahead_telemetry_populated():
    times = {"c0": [(22.5, 0.0)] * 2, "c1": [(66.5, 0.0)] * 3}
    db = _db(times)
    model = _nt_model("telem", {"c0": 2, "c1": 3})
    bubbles = [_bubble(30.0), _bubble(42.0, weight=2, start=40.0),
               _bubble(28.5, weight=2, start=90.0)]
    look = BubbleFiller(db, model, batch=64, strategy="lookahead").fill(
        bubbles, leftover_devices=2
    )
    assert look.beam_peak >= 1
    greedy = BubbleFiller(db, model, batch=64, strategy="greedy").fill(
        bubbles, leftover_devices=2
    )
    assert greedy.states_pruned == 0 and greedy.beam_peak == 0


# -- dominance relation ----------------------------------------------------------


def test_state_dominance_compares_fresh_head_remaining():
    from repro.core.fill_strategies import _state_dominates

    # Strictly later head layer dominates regardless of remaining.
    assert _state_dominates(((2, 64.0),), ((1, 4.0),))
    # Same head layer: fewer fresh-head samples remaining dominates.
    assert _state_dominates(((1, 16.0),), ((1, 64.0),))
    assert not _state_dominates(((1, 64.0),), ((1, 16.0),))
    # Behind on any component kills dominance.
    assert not _state_dominates(((2, 64.0), (0, 64.0)), ((1, 64.0), (1, 64.0)))
    # The naive layer-only relation would call these equal both ways;
    # the safe relation orders them by remaining.
    a, b = ((1, 8.0), (0, 64.0)), ((1, 32.0), (0, 64.0))
    assert _state_dominates(a, b) and not _state_dominates(b, a)


def _trap_instance(seed):
    """The seeded generator the naive-dominance traps were mined from
    (see test_lookahead_equivalence for the entropy-time rationale)."""
    import random

    PHI = (5 ** 0.5 - 1) / 2
    rng = random.Random(seed)
    comps = {}
    for c in range(2):
        n = rng.randint(1, 2)
        comps[f"c{c}"] = [
            (1.0 + ((rng.randrange(1, 10 ** 6)) * PHI) % 29.0, 0.0)
            for _ in range(n)
        ]
    db = _db(comps)
    model = _nt_model(f"trap{seed}", {n: len(v) for n, v in comps.items()})
    nb = rng.randint(2, 3)
    bubbles, t0 = [], 0.0
    for _ in range(nb):
        w = rng.randint(1, 3)
        dur = 2.0 + ((rng.randrange(1, 10 ** 6)) * PHI) % 40.0
        bubbles.append(_bubble(dur, weight=w, start=t0))
        t0 += dur + 1.0
    return db, model, bubbles


@pytest.mark.parametrize("seed", [812, 2610, 3122, 3950, 3971, 4156])
def test_naive_dominance_would_prune_the_optimum(seed, monkeypatch):
    """Brute-force traps for the dominance relation: on these seeded
    instances a *naive* dominance — comparing per-component progress
    only, ignoring the fresh-head remaining (and the earn-bound filled
    compensation) — prunes the state the optimal plan runs through, so
    the naive search lands strictly above the exhaustive optimum.  The
    safe relation keeps that state and stays bit-identical to the
    unpruned reference."""
    import repro.core.fill_strategies as fs

    db, model, bubbles = _trap_instance(seed)
    ref = LookaheadReferenceFill().fill(
        BubbleFiller(
            db, model, batch=64, strategy="lookahead", lookahead_beam=4096
        ),
        bubbles,
        leftover_devices=2,
    )
    safe = BubbleFiller(
        db, model, batch=64, strategy="lookahead", lookahead_beam=4096
    ).fill(bubbles, leftover_devices=2)
    assert safe.leftover_ms == ref.leftover_ms

    monkeypatch.setattr(
        fs, "_state_dominates",
        lambda a, b: all(la >= lb for (la, _), (lb, _) in zip(a, b)),
    )
    monkeypatch.setattr(fs._SearchCtx, "earn_bound", lambda self, key: 0.0)
    naive = BubbleFiller(
        db, model, batch=64, strategy="lookahead", lookahead_beam=4096
    ).fill(bubbles, leftover_devices=2)
    assert naive.leftover_ms > ref.leftover_ms + 1e-9


def test_lookahead_empty_and_no_ready_cases(uniform, uniform_profile):
    filler = BubbleFiller(
        uniform_profile, uniform, batch=64, strategy="lookahead"
    )
    report = filler.fill([], leftover_devices=2)
    assert report.items == ()
    assert not report.complete

    backbone = timed_component("bb", [10.0] * 4, trainable=True)
    bare = ModelSpec("bare", [backbone], backbone_names=("bb",))
    from repro.cluster import single_node
    from repro.profiling import Profiler

    profile = Profiler(single_node(8)).profile(bare)
    report = BubbleFiller(profile, bare, batch=64, strategy="lookahead").fill(
        [_bubble(100.0)], leftover_devices=2
    )
    assert report.items == ()
    assert report.complete
