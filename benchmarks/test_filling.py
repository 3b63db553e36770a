"""Bubble-filling engine benchmarks (fast suite, CI's benchmark step).

Four claims of the filling engine are checked:

* the sweep-line ``extract_bubbles`` (O(E log E) over idle-span edge
  events) is equivalent to the retained quadratic breakpoint scan
  ``extract_bubbles_reference``;
* a repeated fill over the same timeline hits the per-profile
  prefix-time cache: bit-identical report and no new cache entries;
* the pruned+adaptive ``lookahead`` strategy never reports a lower
  throughput than greedy on any point of a cold fig13a-flavoured
  planner sweep;
* a warm shape-cache hit replays a lookahead fill bit-identically, with
  one miss and a hit per replay.

Each fast test decides on those deterministic checks alone.  The
wall-clock ratios — sweep-line >= 5x the quadratic scan, cold >= 1.15x
the warm prefix fill, the lookahead sweep <= 5x greedy's, the cold
lookahead search >= 5x the warm shape-cache replay — are ``slow``
twins, so no wall-clock ratio decides the fast suite
(``-m "not slow" --benchmark-disable``).
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from repro.cluster.topology import p4de_cluster
from repro.core import (
    Bubble,
    BubbleFiller,
    FillShapeCache,
    extract_bubbles,
)
from repro.core.planner import DiffusionPipePlanner, PlannerCaches
from repro.harness.throughput import BENCH_PLANNER_OPTIONS
from repro.models.zoo import stable_diffusion_v2_1
from repro.profiling import Profiler
from repro.models import ModelSpec
from repro.models.zoo import timed_component
from repro.profiling import ProfileDB
from repro.schedule import Task, TaskKind, Timeline, device_resource
from repro.schedule.timeline import Interval
from tests.oracles import extract_bubbles_reference

#: fuzzed-timeline size: ~2 * DEVICES * SPANS span edges for the sweep,
#: segments x devices x spans work for the quadratic reference
DEVICES = 8
SPANS = 150


def _iv(start, end, dev, kind=TaskKind.FORWARD):
    task = Task(
        task_id=f"{kind.value}@{dev}:{start:.3f}",
        resource=device_resource(dev),
        duration=end - start,
        kind=kind,
        device=dev,
    )
    return Interval(start, end, task)


def _fuzzed_timeline(seed=7, devices=DEVICES, spans=SPANS) -> Timeline:
    rng = random.Random(seed)
    intervals = []
    for d in range(devices):
        t = rng.uniform(0.0, 5.0)
        for i in range(spans):
            busy = rng.uniform(0.5, 8.0)
            kind = TaskKind.SYNC if i % 11 == 0 else TaskKind.FORWARD
            intervals.append(_iv(t, t + busy, d, kind))
            t += busy + rng.uniform(0.5, 15.0)
    return Timeline(intervals, devices)


def test_sweep_line_extraction_equivalent_and_faster(benchmark):
    tl = _fuzzed_timeline()
    # Prewarm the timeline's per-device interval index so both
    # implementations measure extraction alone.
    tl.device_intervals(0)

    fast = benchmark.pedantic(
        lambda: extract_bubbles(tl, min_duration_ms=0.0), rounds=1, iterations=1
    )
    ref = extract_bubbles_reference(tl, min_duration_ms=0.0)
    assert fast == ref
    assert len(fast) > 100  # the fuzz produced a real workload
    # Strict view equivalence too.
    assert extract_bubbles(
        tl, min_duration_ms=10.0, include_sync_spans=False
    ) == extract_bubbles_reference(
        tl, min_duration_ms=10.0, include_sync_spans=False
    )


@pytest.mark.slow
def test_sweep_line_extraction_5x_faster_than_quadratic_scan():
    tl = _fuzzed_timeline()
    tl.device_intervals(0)

    def measure():
        t0 = time.perf_counter()
        extract_bubbles_reference(tl, min_duration_ms=0.0)
        quad = time.perf_counter() - t0
        sweep = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            extract_bubbles(tl, min_duration_ms=0.0)
            sweep = min(sweep, time.perf_counter() - t0)
        return quad, sweep

    # Allow one re-measurement: wall-clock on shared runners is noisy.
    for attempt in (1, 2):
        quad, sweep = measure()
        if quad >= 5 * sweep:
            break
    assert quad >= 5 * sweep, f"quadratic={quad:.4f}s sweep={sweep:.4f}s (< 5x)"


def _fill_workload():
    """Long NT chains so per-layer interpolation dominates enumeration."""
    comps = {f"enc{i}": [3.0 + 0.1 * j for j in range(80)] for i in range(3)}
    backbone = timed_component("bb", [1.0], trainable=True)
    specs = [timed_component(n, v) for n, v in comps.items()]
    model = ModelSpec("fill-bench", [backbone] + specs, backbone_names=("bb",))
    profile = ProfileDB.from_layer_times(
        {**{n: [(t, 0.0) for t in v] for n, v in comps.items()},
         "bb": [(1.0, 1.0)]},
        batches=(1.0, 64.0),
        trainable={**{n: False for n in comps}, "bb": True},
        scale_with_batch=True,
    )
    # Constant-idle-set segments of the 8-device fuzz are short (a few
    # ms), so the filler sees many small bubbles — the regime where the
    # per-state prefix arrays are re-requested over and over.  Several
    # fuzz seeds are concatenated (time-shifted) so the wall-clock
    # comparison is not dominated by timer noise.
    bubbles = []
    shift = 0.0
    for seed in (11, 13, 17):
        extracted = extract_bubbles(_fuzzed_timeline(seed=seed),
                                    min_duration_ms=2.0)
        for b in extracted:
            bubbles.append(
                type(b)(start=b.start + shift, end=b.end + shift,
                        devices=b.devices, weight=b.weight)
            )
        shift += _fuzzed_timeline(seed=seed).makespan + 10.0
    return model, profile, bubbles


def _prefix_fill(model, profile, bubbles, caches):
    filler = BubbleFiller(profile, model, batch=64, caches=caches)
    return filler.fill(bubbles, leftover_devices=DEVICES)


def test_cold_vs_warm_fill_prefix_cache(benchmark):
    """A warm fill over the same bubbles reports bit-identically and adds
    no prefix-cache entry."""
    model, profile, bubbles = _fill_workload()
    caches = PlannerCaches()
    caches.clear([profile])
    report = benchmark.pedantic(
        _prefix_fill, args=(model, profile, bubbles, caches),
        rounds=1, iterations=1,
    )
    assert report.items and report.filled_device_time_ms > 0
    entries = caches.prefixes.entry_count(profile)
    assert entries > 0, "cold fill must populate the prefix cache"
    assert _prefix_fill(model, profile, bubbles, caches) == report
    assert caches.prefixes.entry_count(profile) == entries


@pytest.mark.slow
def test_cold_fill_1_15x_slower_than_warm_prefix_fill():
    model, profile, bubbles = _fill_workload()
    caches = PlannerCaches()

    def measure():
        # Best-of-2 cold vs best-of-3 warm, so one scheduler stall
        # cannot flip the ratio.  Each cold pass is genuinely cold: the
        # caches *and* the profile's interpolation memos are reset.
        cold = float("inf")
        cold_report = None
        for _ in range(2):
            caches.clear([profile])
            t0 = time.perf_counter()
            cold_report = _prefix_fill(model, profile, bubbles, caches)
            cold = min(cold, time.perf_counter() - t0)
        entries = caches.prefixes.entry_count(profile)
        assert entries > 0, "cold fill must populate the prefix cache"
        warm = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            warm_report = _prefix_fill(model, profile, bubbles, caches)
            warm = min(warm, time.perf_counter() - t0)
            # Bit-identical outcome and no cache growth on warm passes.
            assert warm_report == cold_report
            assert caches.prefixes.entry_count(profile) == entries
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 1.15 * warm:
            break
    assert cold >= 1.15 * warm, f"cold={cold:.4f}s warm={warm:.4f}s (< 1.15x)"


# ---------------------------------------------------------------------------
# lookahead perf gates (ISSUE 5 acceptance)
# ---------------------------------------------------------------------------


def _sd_sweep(profile, model, strategy, batches=(64, 128, 256, 384)):
    """One cold fig13a-flavoured planner sweep (single machine scale)."""
    cluster = p4de_cluster(1)
    opts = replace(BENCH_PLANNER_OPTIONS, fill_strategy=strategy)
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=opts, caches=PlannerCaches()
    )
    t0 = time.perf_counter()
    plans = {b: planner.plan(b).plan for b in batches}
    return time.perf_counter() - t0, plans


def _assert_lookahead_never_loses(greedy_plans, lookahead_plans):
    # Per fixed (D, S, M) config lookahead's leftover <= greedy's, so
    # its iteration time is <= and its throughput >= — and taking the
    # argmax over configs preserves the inequality.  (The *leftover* of
    # the selected plans is not comparable across sweeps: the two
    # strategies may select different configs.)
    for b, plan in greedy_plans.items():
        assert lookahead_plans[b].throughput >= plan.throughput, b


def test_lookahead_planner_sweep_within_5x_of_greedy(benchmark):
    """With dominance pruning and the narrow-by-default adaptive beam, a
    cold lookahead planner sweep never reports a lower throughput than
    the greedy sweep on any point; its <= 5x wall-clock bound is the
    slow twin's."""
    model = stable_diffusion_v2_1()
    profile = Profiler(p4de_cluster(1)).profile(model)
    _, greedy_plans = _sd_sweep(profile, model, "greedy")
    _, lookahead_plans = benchmark.pedantic(
        _sd_sweep, args=(profile, model, "lookahead"), rounds=1, iterations=1
    )
    _assert_lookahead_never_loses(greedy_plans, lookahead_plans)


@pytest.mark.slow
def test_lookahead_planner_sweep_5x_of_greedy_wall_clock():
    """The cold-search perf gate: a lookahead planner sweep costs at
    most 5x the greedy sweep (it was 20-100x before the rebuild)."""
    model = stable_diffusion_v2_1()
    profile = Profiler(p4de_cluster(1)).profile(model)
    # Warm the profile interpolation caches so both sweeps measure
    # planning, not first-touch interpolation.
    _sd_sweep(profile, model, "greedy")

    def measure():
        greedy_s = lookahead_s = float("inf")
        for _ in range(2):
            tg, greedy_plans = _sd_sweep(profile, model, "greedy")
            tl, lookahead_plans = _sd_sweep(profile, model, "lookahead")
            greedy_s = min(greedy_s, tg)
            lookahead_s = min(lookahead_s, tl)
        return greedy_s, lookahead_s, greedy_plans, lookahead_plans

    for attempt in (1, 2):
        greedy_s, lookahead_s, greedy_plans, lookahead_plans = measure()
        if lookahead_s <= 5.0 * greedy_s:
            break
    assert lookahead_s <= 5.0 * greedy_s, (
        f"lookahead sweep {lookahead_s:.3f}s vs greedy {greedy_s:.3f}s "
        f"(> 5x)"
    )
    _assert_lookahead_never_loses(greedy_plans, lookahead_plans)


def _lookahead_workload():
    """A lookahead-heavy fill: long NT chains over many fuzzed bubbles
    (the regime where the cold search costs real time).

    Bubble edges are quantised to a dyadic (0.5 ms) grid so that
    time-shifting the list by a power of two preserves every duration
    bit for bit — the shape key is exact floats."""
    model, profile, fuzzed = _fill_workload()
    bubbles = []
    t0 = 0.0
    for b in fuzzed:
        dur = max(2.0, round(2.0 * b.duration) / 2.0)
        bubbles.append(
            Bubble(start=t0, end=t0 + dur, devices=b.devices, weight=b.weight)
        )
        t0 += dur + 1.0
    return model, profile, bubbles


def _shape_cache_case():
    """The lookahead workload, the same bubbles time-shifted (exact for
    the dyadic-grid edges, so every (duration, weight) shape is kept),
    and a fill runner."""
    model, profile, bubbles = _lookahead_workload()
    shift = float(2 ** 20)  # exact for the dyadic-grid bubble edges
    shifted = [
        Bubble(start=b.start + shift, end=b.end + shift,
               devices=b.devices, weight=b.weight)
        for b in bubbles
    ]
    assert [(b.duration, b.weight) for b in shifted] == [
        (b.duration, b.weight) for b in bubbles
    ]

    def run(bubble_list, cache):
        filler = BubbleFiller(
            profile, model, batch=64, strategy="lookahead", fill_cache=cache
        )
        return filler.fill(bubble_list, leftover_devices=DEVICES)

    return bubbles, shifted, run


def _assert_replay_matches(warm_report, cold_report):
    # The replay must rebind bubble indices but match the cold report
    # in every time/size field.
    assert warm_report.leftover_ms == cold_report.leftover_ms
    assert warm_report.filled_device_time_ms == cold_report.filled_device_time_ms
    assert warm_report.states_pruned == cold_report.states_pruned
    assert warm_report.beam_peak == cold_report.beam_peak
    assert len(warm_report.items) == len(cold_report.items)


def test_warm_vs_cold_shape_cache_speedup(benchmark):
    """A warm shape-cache hit replays the plan without searching:
    hit/miss accounting as expected and the cold report's every
    time/size field.  The warm passes use time-shifted bubbles, proving
    the cache keys on the (duration, weight) shape rather than on
    absolute times; the identical shape replays bit-identically."""
    bubbles, shifted, run = _shape_cache_case()
    cache = FillShapeCache()
    cold_report = benchmark.pedantic(
        run, args=(bubbles, cache), rounds=1, iterations=1
    )
    assert cache.final_misses == 1 and cache.final_hits == 0
    for _ in range(3):
        _assert_replay_matches(run(shifted, cache), cold_report)
    assert cache.final_misses == 1 and cache.final_hits >= 3
    assert run(bubbles, cache) == cold_report


@pytest.mark.slow
def test_warm_shape_cache_replay_5x_faster_than_cold_search():
    bubbles, shifted, run = _shape_cache_case()

    def measure():
        cache = FillShapeCache()
        t0 = time.perf_counter()
        cold_report = run(bubbles, cache)
        cold = time.perf_counter() - t0
        assert cache.final_misses == 1 and cache.final_hits == 0
        warm = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            warm_report = run(shifted, cache)
            warm = min(warm, time.perf_counter() - t0)
            _assert_replay_matches(warm_report, cold_report)
        assert cache.final_hits >= 3
        # Identical shape (not shifted) must be bit-identical outright.
        assert run(bubbles, cache) == cold_report
        return cold, warm

    for attempt in (1, 2):
        cold, warm = measure()
        if cold >= 5.0 * warm:
            break
    assert cold >= 5.0 * warm, f"cold={cold:.4f}s warm={warm:.4f}s (< 5x)"
