"""Bound-ladder plan search: pruning never changes the chosen plan.

:meth:`DiffusionPipePlanner.plan` keeps every feasible (D, S, M) in a
heap keyed by its best known throughput bound and lets the top one
climb a rung per pop — the pre-partition makespan floor (every
family but the chunked one), then the closed-form floor of each partition's
pipeline, then the simulated ``samples / pipeline_ms`` bound, then the
fill — until the top bound cannot beat the incumbent.
Three cross-layer invariants make that safe, and all are checked here
exactly — ``float.hex`` comparisons and plain ``>=``, no tolerance:

* **the simulated bound is sound** — every candidate's ``samples /
  pipeline_ms * 1e3`` is at least its filled throughput, and at most the
  bound the search actually used (the best of the configuration's
  finalists; equal where it has one);
* **the floors are sound** — a candidate's pre-partition floor bound
  (bidirectional models, and single-backbone ones under the onef1b,
  gpipe and zerobubble families) and its closed-form bound (each
  already gives up its stated margin) are at least its simulated
  bound, and a configuration without a floor has no partition either;
* **pruning never changes the chosen plan** — ``plan(b)`` is the first
  maximum of the exhaustive :meth:`candidate_plans`, configuration,
  partition and timings alike, on homogeneous and speed-scaled groups.

Deterministic counter gates pin the savings: a cold 16-GPU SD plan
partitions 9 of its 35 configurations (34 of 70 tables with
heterogeneous replication), simulates 2 of the exhaustive search's 70
timelines, derives each finalist's stage chain once for both of its
floors and runs the bubble filler for the winning configuration only,
and a cold 16-GPU
heterogeneous CDM-LSUN plan builds 23 of the 70 CDM tables of the
exhaustive search, folds a quarter of the candidates its tables held
before the batch prefilter, and builds each floor compute slab once.

Heterogeneous replication never loses to uniform: a heterogeneous
planner keeps the pinned ``r = D/S`` partition as a finalist of every
configuration with ``S | D``, so its plan trains at least as fast as the
uniform planner's on the same model, cluster and batch.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.partition_kernels as kernels
import repro.core.planner as planner_mod
from repro.cluster import DeviceSpec, p4de_cluster, single_node
from repro.core import DiffusionPipePlanner, PlannerCaches, PlannerOptions
from repro.core.filling import BubbleFiller
from repro.core.partition import (
    _backbone_lattice,
    _expected,
    backbone_makespan_floor,
)
from repro.errors import ConfigurationError, PartitionError
from repro.models.zoo import (
    cascaded_model,
    cdm_imagenet,
    cdm_lsun,
    stable_diffusion_v2_1,
    two_encoder_model,
    uniform_model,
)
from repro.profiling import Profiler
from repro.profiling.records import ProfileDB
from repro.schedule import FLOOR_MARGIN
from tests.oracles import het_floor_reference

MODELS = {
    "uniform": uniform_model,
    "uniform-sc": lambda: uniform_model(self_conditioning=True),
    "two-encoder": two_encoder_model,
    "cascaded": cascaded_model,
    "cdm-lsun": cdm_lsun,
}
#: the bidirectional models of :data:`MODELS`
CASCADED = ("cascaded", "cdm-lsun")
#: device memory (bytes) of the small device: between the toy models'
#: smallest and largest per-device peaks, so some configurations OOM
SMALL_MEMORY = 3.82e7
#: per-rank speed overrides (as ``(rank, factor)`` items): one or two
#: slow or fast ranks, so groups mix window factors
SPEED_FACTORS = (
    (),
    ((0, 0.5),),
    ((1, 0.8),),
    ((2, 1.5),),
    ((0, 1.5), (3, 0.5)),
    ((1, 0.8), (2, 0.5)),
)

@functools.cache
def _setup(model_name, devices, memory, speeds=()):
    """(model, cluster, profile), profiled once per combination."""
    spec = DeviceSpec(name="small", memory_bytes=memory) if memory else None
    cluster = single_node(devices, device_spec=spec, speed_factors=dict(speeds))
    model = MODELS[model_name]()
    return model, cluster, Profiler(cluster).profile(model)


@st.composite
def search_case(draw):
    model_name = draw(st.sampled_from(sorted(set(MODELS) - {"cdm-lsun"})))
    devices = draw(st.sampled_from((4, 6, 8)))
    memory = draw(st.sampled_from((None, SMALL_MEMORY)))
    speeds = draw(st.sampled_from(SPEED_FACTORS))
    options = PlannerOptions(
        max_stages=4,
        micro_batch_counts=(1, 2, 3, 4),
        fill_strategy=draw(st.sampled_from(("greedy", "lookahead", "none"))),
        enable_bubble_filling=draw(st.booleans()),
        heterogeneous_replication=draw(st.booleans()),
        cdm_cut_step=1,
        schedule="auto" if model_name == "cascaded" else draw(
            st.sampled_from(("auto", "gpipe", "zerobubble"))
        ),
    )
    batch = draw(st.sampled_from((12, 16, 24, 48, 64)))
    return model_name, devices, memory, speeds, options, batch


def _planner(model, cluster, profile, options):
    return DiffusionPipePlanner(
        model, cluster, profile, options=options, caches=PlannerCaches()
    )


@settings(max_examples=40, deadline=None)
@given(search_case())
def test_plan_is_first_maximum_and_bound_is_sound(case):
    model_name, devices, memory, speeds, options, batch = case
    model, cluster, profile = _setup(model_name, devices, memory, speeds)
    exhaustive = _planner(model, cluster, profile, options)
    candidates = exhaustive.candidate_plans(batch)

    for ev in candidates:
        p = ev.plan
        samples = batch * (2 if p.partition.is_bidirectional else 1)
        bound = samples / p.pipeline_ms * 1e3
        assert bound >= p.throughput, (p.config_label, bound, p.throughput)
        cfg = (p.partition.group_size, p.partition.num_stages,
               p.partition.num_micro_batches)
        # Each finalist's bound is this very expression on its own
        # timelines, and the search ranks by the best finalist's.
        finalists, per_group = exhaustive._gate(batch, *cfg)
        assert p.partition in [partition for partition, _, _ in finalists]
        own = exhaustive._finalist_bound(batch, p.partition, per_group)
        assert own.hex() == bound.hex()
        simulated = exhaustive._bound(batch, *cfg)
        assert simulated >= bound
        # The closed-form rung, which decides what gets simulated.
        closed = exhaustive._closed_form(batch, *cfg)
        assert closed >= simulated >= p.throughput, (
            p.config_label, closed, simulated, p.throughput,
        )

    # The pruned search runs on its own cold caches.  Throughput ties
    # at the maximum are common on these models, so the tie rule (first
    # in candidate_configs order) is exercised too.
    pruned = _planner(model, cluster, profile, options)
    if not candidates:
        # The small device can leave nothing that fits.
        with pytest.raises(ConfigurationError, match="no feasible"):
            pruned.plan(batch)
        return
    expected = max(candidates, key=lambda ev: ev.plan.throughput).plan
    got = pruned.plan(batch).plan
    assert got.config_label == expected.config_label
    assert got.partition == expected.partition
    assert got.throughput.hex() == expected.throughput.hex()
    assert got.iteration_ms.hex() == expected.iteration_ms.hex()


@st.composite
def floor_case(draw):
    """Bidirectional models (the toy cascade on up to 8 devices and
    CDM-LSUN on small clusters, both cut grids) and the single-backbone
    toy models under the onef1b, gpipe and zerobubble families, both
    replication flavours, with and without speed factors."""
    model_name = draw(st.sampled_from(sorted(MODELS)))
    cascaded = model_name in CASCADED
    devices = draw(st.sampled_from((4, 6) if model_name == "cdm-lsun" else (4, 6, 8)))
    options = PlannerOptions(
        max_stages=4,
        micro_batch_counts=(1, 2, 4),
        enable_bubble_filling=draw(st.booleans()),
        heterogeneous_replication=draw(st.booleans()),
        cdm_cut_step=draw(st.sampled_from((1, 2))),
        schedule="auto" if cascaded else draw(
            st.sampled_from(("onef1b", "gpipe", "zerobubble"))
        ),
    )
    speeds = draw(st.sampled_from(SPEED_FACTORS))
    batch = draw(st.sampled_from((16, 24, 64)))
    return model_name, devices, speeds, options, batch


@settings(max_examples=40, deadline=None)
@given(floor_case())
def test_floor_bounds_the_simulated_bound(case):
    model_name, devices, speeds, options, batch = case
    model, cluster, profile = _setup(model_name, devices, None, speeds)
    planner = _planner(model, cluster, profile, options)
    # Floored before any DP runs: a single-backbone configuration whose
    # tables are memoised gets the trivial floor (bound +inf).
    floors = {
        cfg: planner._floor(batch, *cfg)
        for cfg in planner.candidate_configs(batch)
    }
    assert math.inf not in floors.values()
    evaluated = {
        (p.partition.group_size, p.partition.num_stages,
         p.partition.num_micro_batches): p
        for p in (ev.plan for ev in planner.candidate_plans(batch))
    }
    for cfg, floor in floors.items():
        bound = planner._bound(batch, *cfg)
        if floor is None:
            # No lattice partition: the ladder may drop the config.
            assert bound is None and cfg not in evaluated, cfg
        elif cfg in evaluated:
            throughput = evaluated[cfg].throughput
            assert floor >= bound >= throughput, (cfg, floor, bound, throughput)


@settings(max_examples=25, deadline=None)
@given(floor_case().filter(lambda case: case[0] not in CASCADED))
def test_single_backbone_floor_is_at_least_the_steady_phase(case):
    """Pricing the fill-and-drain ramp only raises a single-backbone
    floor: each one is at least the steady-phase formula it replaced,
    ``max(M·W*, CP*)`` from the brute-force oracle, mixed and margined
    as the floor is, and its bound is still at least the simulated
    bound."""
    model_name, devices, speeds, options, batch = case
    model, cluster, profile = _setup(model_name, devices, None, speeds)
    planner = _planner(model, cluster, profile, options)
    family = planner._family
    het = options.heterogeneous_replication
    configs = list(planner.candidate_configs(batch))
    bounds = {cfg: planner._floor(batch, *cfg) for cfg in configs}
    for D, S, M in configs:
        ctx = planner._backbone_context(
            batch / (cluster.world_size // D), D, M
        )
        try:
            L, fixed_r = _backbone_lattice(ctx, S, D, het)
        except PartitionError:
            assert bounds[D, S, M] is None
            continue
        terms = het_floor_reference(
            ctx, L, S, D,
            r_cap=fixed_r if fixed_r is not None else int(ctx.micro_batch),
            fixed_r=fixed_r, split_backward=family.splits_backward,
            comm_scale=family.comm_scale,
        )
        if math.isinf(terms[0][2]):
            assert bounds[D, S, M] is None
            continue
        steady = [max(M * w, cp) for w, _, cp in terms]
        if ctx.self_conditioning:
            steady = [_expected(ctx.self_conditioning_prob, *steady)]
        floor = backbone_makespan_floor(
            ctx, S, D, heterogeneous=het,
            split_backward=family.splits_backward,
            comm_scale=family.comm_scale, caches=planner.caches,
        )
        assert floor >= steady[0] * (1.0 - FLOOR_MARGIN), (D, S, M)
        assert bounds[D, S, M] >= planner._bound(batch, D, S, M), (D, S, M)


def test_small_memory_device_rejects_some_configs():
    """The property's small device really exercises the memory gate:
    some configurations OOM, others fit."""
    model, cluster, profile = _setup("uniform", 8, SMALL_MEMORY)
    planner = _planner(model, cluster, profile, PlannerOptions(
        max_stages=4, micro_batch_counts=(1, 2, 3, 4)))
    configs = list(planner.candidate_configs(64))
    fitting = planner.candidate_plans(64)
    assert 0 < len(fitting) < len(configs)


def _count_outer_fills(monkeypatch) -> list[int]:
    """Count outermost ``BubbleFiller.fill`` calls; the lookahead fill
    re-enters it, and inner calls are not separate fills."""
    count = [0]
    depth = [0]
    fill = BubbleFiller.fill

    def counting(self, *args, **kwargs):
        if not depth[0]:
            count[0] += 1
        depth[0] += 1
        try:
            return fill(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(BubbleFiller, "fill", counting)
    return count


def test_cold_plan_fills_only_the_winner(monkeypatch):
    """Counter gate: a cold SD v2.1 (self-conditioning) plan on 16 GPUs
    fills one configuration — its plain and self-conditioned timelines,
    two fills — where the exhaustive search fills all 35 (70 fills)."""
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    options = PlannerOptions(fill_strategy="lookahead")
    fills = _count_outer_fills(monkeypatch)

    best = _planner(model, cluster, profile, options).plan(256)
    assert fills[0] == 2

    fills[0] = 0
    candidates = _planner(model, cluster, profile, options).candidate_plans(256)
    assert fills[0] == 70
    assert best.plan == max(candidates, key=lambda ev: ev.plan.throughput).plan


def test_cold_plan_simulates_only_what_can_win(monkeypatch):
    """Counter gate of the closed-form rung: a cold SD v2.1
    (self-conditioning) plan on 16 GPUs simulates 2 timelines — the
    plain and self-conditioned ones of the one configuration whose
    closed-form pipeline floor can still win — where the exhaustive
    search simulates all 35 (70 timelines), and picks the exhaustive
    search's first maximum.  Before the floors priced the pipeline's
    fill and drain, 4 configurations reached the simulation (8
    timelines)."""
    calls = [0]
    simulate = planner_mod.simulate

    def counting(*args, **kwargs):
        calls[0] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "simulate", counting)
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    options = PlannerOptions(fill_strategy="lookahead")

    best = _planner(model, cluster, profile, options).plan(256)
    assert calls[0] == 2

    calls[0] = 0
    candidates = _planner(model, cluster, profile, options).candidate_plans(256)
    assert calls[0] == 70
    assert best.plan == max(candidates, key=lambda ev: ev.plan.throughput).plan


def test_finalists_derive_their_stage_chain_once(monkeypatch):
    """Counter gate of the stage-exec derivation (``lower_partition``
    calls): a finalist's plain and self-conditioned floors share one
    stage chain, and so do its two simulated timelines, so a cold SD
    v2.1 (self-conditioning) plan on 16 GPUs derives 10 chains — one per finalist of the 9
    configurations the pre-partition floor lets reach the closed-form
    rung, one per simulated partition (1, for 2 timelines) — and the
    exhaustive search 70 (35 floors and 35 partitions' 70 timelines).
    While the floors priced only the steady phase, 14 configurations
    reached the closed-form rung and 4 the simulation (18 chains).
    Before the single-backbone floor rung, all 35 configurations
    reached the closed-form rung (39 chains); deriving a chain per
    floor made it 78 and 140, and a chain per timeline 43 and 105."""
    calls = [0]
    lower_partition = planner_mod.lower_partition

    def counting(*args, **kwargs):
        calls[0] += 1
        return lower_partition(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "lower_partition", counting)
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)

    def cold_planner():
        return DiffusionPipePlanner(
            model, cluster, profile, options=PlannerOptions(),
            caches=PlannerCaches.cold([profile]),
        )

    cold_planner().plan(256)
    assert calls[0] == 10
    calls[0] = 0
    cold_planner().candidate_plans(256)
    assert calls[0] == 70


def _cold_sd_plan_256(monkeypatch, **options):
    """Cold SD v2.1 (self-conditioning) ``plan(256)`` on 16 GPUs under
    ``options``; returns its caches, its ``partition_backbone`` calls
    and its ``het_table_array`` builds."""
    counts = {"partition": 0, "tables": 0}

    def counting(module, name, tag):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[tag] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(planner_mod, "partition_backbone", "partition")
    counting(kernels, "het_table_array", "tables")
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches.cold([profile])
    DiffusionPipePlanner(
        model, cluster, profile, options=PlannerOptions(**options),
        caches=caches,
    ).plan(256)
    return caches, counts["partition"], counts["tables"]


def test_cold_sd_plan_partitions_only_what_can_win(monkeypatch):
    """Counter gate of the single-backbone floor rung: a cold SD v2.1
    (self-conditioning) ``plan(256)`` on 16 GPUs runs the partition DP
    for the 9 of its 35 configurations whose pre-partition floor can
    still win, building 5 pinned 1F1B tables (14 DPs and 8 tables
    while the floor priced only the steady phase; 35 DPs and 20 tables
    when every configuration entered at the closed-form rung).  The
    floor pass builds 2 ``kernel_plans`` entries: one pinned lattice
    per stage count (S = 2 and 4), each shared by every replica
    count.  The 5 tables walk those plans too, so each adds a hit and
    no miss (33 hits when the tables enumerated their own
    transitions)."""
    caches, partitions, tables = _cold_sd_plan_256(monkeypatch)
    assert (partitions, tables) == (9, 5)
    plans = caches.stats().store("kernel_plans")
    assert (plans.misses, plans.hits) == (2, 33 + 5)


def test_cold_heterogeneous_sd_plan_skips_most_partition_tables(monkeypatch):
    """Counter gate of ROADMAP item 7: a cold heterogeneous SD v2.1
    ``plan(256)`` on 16 GPUs runs 39 partition DPs and builds 34
    ``het_table_array`` tables (48 and 41 while the floor priced only
    the steady phase; 70 tables when every configuration ran its free
    and its pinned DP).  They
    and the floor pass build 12 ``kernel_plans`` entries: the floor's
    10 free lattice plans, which the free tables share because no
    sample cap binds at this batch, and one pinned plan per stage count
    (S = 2 and 4), which only the tables of the pinned ``r = D/S``
    finalists walk (10 entries when the tables enumerated their own
    transitions)."""
    caches, partitions, tables = _cold_sd_plan_256(
        monkeypatch, heterogeneous_replication=True
    )
    assert (partitions, tables) == (39, 34)
    assert caches.stats().store("kernel_plans").misses == 12


def test_memoised_tables_skip_the_floor(monkeypatch):
    """A single-backbone configuration whose finalists' DP tables are
    all memoised enters the closed-form rung unfloored: partitioning it
    reads tables, which a floor would only add to.  A cold 16-GPU SD
    v2.1 ``plan(256)`` floors all 35 configurations; a planner on fresh
    caches holding only its 5 ``het`` tables (a restored snapshot's
    state) floors the 26 whose DPs never ran, builds no table and picks
    the same plan (8 tables and 21 floors while the floor priced only
    the steady phase)."""
    calls = [0]
    floor = planner_mod.backbone_makespan_floor

    def counting(*args, **kwargs):
        calls[0] += 1
        return floor(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "backbone_makespan_floor", counting)
    cluster = p4de_cluster(2)
    model = stable_diffusion_v2_1()
    profile = Profiler(cluster).profile(model)
    cold = PlannerCaches.cold([profile])
    want = DiffusionPipePlanner(model, cluster, profile, caches=cold).plan(256)
    assert calls[0] == 35 and len(cold.het) == 5
    calls[0] = 0
    tables = PlannerCaches()
    for owner, key, value in cold.het.items():
        tables.het.put(owner, key, value)
    got = DiffusionPipePlanner(model, cluster, profile, caches=tables).plan(256)
    assert calls[0] == 26
    assert tables.stats().store("het").misses == 0
    assert got.plan == want.plan
    assert got.plan.throughput.hex() == want.plan.throughput.hex()


def test_floor_memo_is_keyed_by_schedule_family():
    """Under self-conditioning zerobubble shares 1F1B's partition mode
    but not its floor: its split-backward path is shorter.  Planners of
    both families sharing one ``PlannerCaches`` each return their own
    cold planner's plan; a floor memo without the family serves the
    zerobubble planner 1F1B's higher floors, which prune its winner
    ((D, S, M) = (2, 2, 1) at batch 16 on 8 GPUs)."""
    model, cluster, profile = _setup("uniform-sc", 8, None)

    def planner(schedule, caches):
        options = PlannerOptions(schedule=schedule, enable_bubble_filling=False)
        return DiffusionPipePlanner(
            model, cluster, profile, options=options, caches=caches
        )

    shared = PlannerCaches()
    for schedule in ("onef1b", "zerobubble"):
        got = planner(schedule, shared).plan(16).plan
        want = planner(schedule, PlannerCaches()).plan(16).plan
        assert got == want, schedule
        assert got.throughput.hex() == want.throughput.hex()


def test_cold_cdm_floor_pass_builds_one_plan_per_lattice():
    """Counter gate of the uncapped floor plans: a free lattice's floor
    folds over the geometry plans of replica cap ``D - S + 1`` whatever
    its own cap: the joint plan of its ``W`` fold and one entry holding
    both chains' plans for its path folds.  So a cold heterogeneous
    CDM-LSUN ``plan(128)`` on 16 GPUs builds 22 entries: 12 joint plans
    (the 10 floor lattices', which the free tables share, and 2 pinned
    ones only tables use) and 10 chain entries.  Before the chain plans
    it built 12, and a floor plan per replica cap made the joint plans
    19."""
    cluster = p4de_cluster(2)
    model = cdm_lsun()
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches.cold([profile])
    DiffusionPipePlanner(
        model, cluster, profile,
        options=PlannerOptions(heterogeneous_replication=True), caches=caches,
    ).plan(128)
    assert caches.stats().store("kernel_plans").misses == 22


def _cold_cdm_plan_256():
    """Cold heterogeneous CDM-LSUN ``plan(256)`` on 16 GPUs; returns
    its caches."""
    cluster = p4de_cluster(2)
    model = cdm_lsun()
    profile = Profiler(cluster).profile(model)
    caches = PlannerCaches.cold([profile])
    DiffusionPipePlanner(
        model, cluster, profile,
        options=PlannerOptions(heterogeneous_replication=True), caches=caches,
    ).plan(256)
    return caches


def test_cold_cdm_plan_folds_a_quarter_of_its_candidates(monkeypatch):
    """Counter gate of the CDM kernel's batch prefilter: a cold
    heterogeneous CDM-LSUN ``plan(256)`` on 16 GPUs builds 23 CDM
    tables whose stage folds (the top-level ``_staircase_drop`` calls
    of ``cdm_table_array``) take 790,864 candidates; expanding every
    transition batch made it 3,286,157."""
    folded = [0]
    depth = [0]
    fold = kernels._staircase_drop
    table = kernels.cdm_table_array

    def counted_fold(w, y, counts):
        if depth[0] == 1:
            folded[0] += len(w)
        depth[0] += 1
        try:
            return fold(w, y, counts)
        finally:
            depth[0] -= 1

    def counted_table(*args, **kwargs):
        depth[0] += 1
        try:
            return table(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "_staircase_drop", counted_fold)
    monkeypatch.setattr(kernels, "cdm_table_array", counted_table)
    caches = _cold_cdm_plan_256()
    assert caches.stats().store("cdm").misses == 23
    assert folded[0] == 790_864
    assert 4 * folded[0] <= 3_286_157


def test_cold_cdm_floor_pass_builds_each_compute_slab_once(monkeypatch):
    """Counter gate of the compute-slab memo: the floor folds of a cold
    heterogeneous CDM-LSUN ``plan(256)`` on 16 GPUs ask for 670 compute
    slabs over 94 distinct (component, local batch, window factor), and
    the profile's memo builds each of those once."""
    calls = [0]
    built: dict[int, object] = {}
    slab = ProfileDB.stage_compute_slab

    def counted(profile, *args):
        calls[0] += 1
        got = slab(profile, *args)
        built[id(got)] = got  # held, so no id is reused
        return got

    monkeypatch.setattr(ProfileDB, "stage_compute_slab", counted)
    _cold_cdm_plan_256()
    assert calls[0] == 670
    assert len(built) == 94


def test_cold_cdm_floor_pass_builds_each_path_column_once(monkeypatch):
    """Counter gate of the path-column memos: the floor folds of a cold
    heterogeneous CDM-LSUN ``plan(256)`` on 16 GPUs ask for 670 send and
    670 sync columns, and the profile's memos build each distinct one
    once: 140 send columns (component, local batch, p2p constants,
    link) and 190 sync columns (component, local batch, all-reduce
    constants).  Rebuilding them on every floor call made 670 of each,
    and read each backbone's per-layer output bytes on every call."""

    def counting(name):
        method = getattr(ProfileDB, name)
        seen = {"calls": 0, "built": {}}

        def counted(profile, *args):
            seen["calls"] += 1
            got = method(profile, *args)
            seen["built"][id(got)] = got  # held, so no id is reused
            return got

        monkeypatch.setattr(ProfileDB, name, counted)
        return seen

    send = counting("stage_send_column")
    sync = counting("stage_sync_column")
    _cold_cdm_plan_256()
    assert (send["calls"], len(send["built"])) == (670, 140)
    assert (sync["calls"], len(sync["built"])) == (670, 190)


def test_cold_cdm_plan_skips_most_partition_tables():
    """Counter gate of the floor rung: a cold heterogeneous CDM-LSUN
    plan on 16 GPUs builds 23 CDM tables — 15 free and 8 pinned to
    ``r = D/S`` for the second finalist — of the 70 the exhaustive
    search builds (50 free, one per configuration, and 20 pinned), and
    returns the plan the exhaustive search picks: (D, S, M) =
    (16, 2, 1) on replicas 8/8 at 0x1.88b185c22846bp+9 samples/s,
    pinned from ``candidate_plans(256)``, which is the uniform
    planner's plan."""
    cluster = p4de_cluster(2)
    model = cdm_lsun()
    profile = Profiler(cluster).profile(model)
    options = PlannerOptions(heterogeneous_replication=True)
    caches = PlannerCaches.cold([profile])
    planner = DiffusionPipePlanner(
        model, cluster, profile, options=options, caches=caches
    )
    best = planner.plan(256).plan
    assert len(list(planner.candidate_configs(256))) == 50
    assert caches.stats().store("cdm").misses == 23
    assert (best.partition.group_size, best.partition.num_stages,
            best.partition.num_micro_batches) == (16, 2, 1)
    assert [st.replicas for st in best.partition.down] == [8, 8]
    assert best.throughput.hex() == "0x1.88b185c22846bp+9"
    assert best == planner.evaluate(256, 16, 2, 1).plan
    uniform = _planner(model, cluster, profile, PlannerOptions()).plan(256)
    assert uniform.plan.throughput.hex() == best.throughput.hex()


#: drawn toy models, as hashable arguments: a cascade of two uniform
#: backbones (layer counts, per-layer times) or one uniform backbone
#: with or without self-conditioning
CASCADES = st.tuples(
    st.just("cascaded"),
    st.integers(4, 12),
    st.integers(4, 12),
    st.sampled_from((5.0, 7.0, 10.0, 12.0, 13.0)),
    st.sampled_from((5.0, 7.0, 10.0, 12.0, 13.0)),
)
UNIFORMS = st.tuples(st.just("uniform"), st.booleans())


@functools.cache
def _replication_setup(model_args, devices, slow):
    """(model, cluster, profile) of one drawn case; ``slow`` is one
    ``(rank, factor)`` speed override or None."""
    kind, *args = model_args
    if kind == "cascaded":
        layers_a, layers_b, ms_a, ms_b = args
        model = cascaded_model(
            layers_a=layers_a, layers_b=layers_b,
            layer_ms_a=ms_a, layer_ms_b=ms_b,
        )
    else:
        model = uniform_model(self_conditioning=args[0])
    cluster = single_node(devices, speed_factors=dict([slow]) if slow else None)
    return model, cluster, Profiler(cluster).profile(model)


def _replication_plans(model, cluster, profile, batch):
    """The heterogeneous and the uniform plan (None where infeasible),
    each on cold caches and otherwise default options."""
    plans = []
    for het in (True, False):
        planner = _planner(
            model, cluster, profile,
            PlannerOptions(heterogeneous_replication=het),
        )
        try:
            plans.append(planner.plan(batch).plan)
        except ConfigurationError:
            plans.append(None)
    return plans


@settings(max_examples=40, deadline=None)
@given(
    model_args=st.one_of(CASCADES, UNIFORMS),
    devices=st.sampled_from((4, 6, 8)),
    slow=st.sampled_from((None, (0, 0.5), (1, 0.7), (3, 0.5))),
    batch=st.sampled_from((16, 32, 64, 128, 256)),
)
# T_max picks a partition that simulates slower than the uniform
# planner's (1469.2378 < 1469.3604 and 601.97 < 614.20 samples/s
# before the pinned finalist).
@example(model_args=("cascaded", 6, 6, 10.0, 12.0), devices=6, slow=None,
         batch=128)
@example(model_args=("cascaded", 8, 10, 7.0, 13.0), devices=6, slow=None,
         batch=32)
def test_heterogeneous_never_loses_to_uniform(model_args, devices, slow, batch):
    model, cluster, profile = _replication_setup(model_args, devices, slow)
    het, uniform = _replication_plans(model, cluster, profile, batch)
    if uniform is None:
        return
    assert het is not None
    assert het.throughput >= uniform.throughput, (
        het.config_label, het.throughput, uniform.config_label,
        uniform.throughput,
    )


@pytest.mark.slow
@pytest.mark.parametrize("model_fn", [cdm_lsun, cdm_imagenet])
def test_heterogeneous_never_loses_to_uniform_on_16_gpus(model_fn):
    """The 16-GPU CDM cases where the heterogeneous winner trained up
    to 5.5% slower than the uniform one before the pinned finalist."""
    cluster = p4de_cluster(2)
    model = model_fn()
    profile = Profiler(cluster).profile(model)
    for batch in (128, 256, 512):
        het, uniform = _replication_plans(model, cluster, profile, batch)
        assert het.throughput >= uniform.throughput, (
            batch, het.config_label, het.throughput,
            uniform.config_label, uniform.throughput,
        )
