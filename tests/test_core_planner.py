"""Planner (front-end workflow) tests."""

import pytest

from repro.core import DiffusionPipePlanner, ElasticEvent, PlannerOptions
from repro.core.caches import PlannerCaches
from repro.errors import ConfigurationError
from repro.models.zoo import uniform_model
from tests.oracles import dp_engine


def _options(**kw):
    base = dict(
        max_stages=4,
        micro_batch_counts=(1, 2, 4),
        group_sizes=(2, 4),
        check_memory=False,
    )
    base.update(kw)
    return PlannerOptions(**base)


def test_candidate_configs_feasibility(cluster8, uniform, uniform_profile):
    """An integral float batch admits the configurations of its int; a
    fractional one admits none, since no per-group batch it gives is a
    whole number."""
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    configs = list(planner.candidate_configs(64))
    assert configs
    assert list(planner.candidate_configs(64.0)) == configs
    assert list(planner.candidate_configs(63.5)) == []
    for D, S, M in configs:
        assert 8 % D == 0
        assert D % S == 0
        dp = 8 // D
        assert 64 % dp == 0
        assert (64 / dp) % M == 0


def test_plan_picks_max_throughput(cluster8, uniform, uniform_profile):
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    all_plans = planner.candidate_plans(64)
    best = planner.plan(64)
    assert best.plan.throughput == max(ev.plan.throughput for ev in all_plans)


def test_filling_improves_iteration(cluster8, uniform, uniform_profile):
    filled = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile, _options()
    ).plan(64)
    unfilled = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile,
        _options(enable_bubble_filling=False),
    ).plan(64)
    assert filled.plan.throughput >= unfilled.plan.throughput
    assert filled.plan.bubble_ratio_filled <= filled.plan.bubble_ratio_unfilled


def test_evaluate_specific_config(cluster8, uniform, uniform_profile):
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    ev = planner.evaluate(64, group_size=2, num_stages=2, num_micro=2)
    assert ev is not None
    p = ev.plan
    assert p.partition.num_stages == 2
    assert p.data_parallel_degree == 4
    assert p.iteration_ms > 0
    assert p.throughput == pytest.approx(64 / p.iteration_ms * 1e3)
    assert p.config_label == "S=2 M=2 D=2 dp=4"


def test_keep_timeline_option(cluster8, uniform, uniform_profile):
    planner = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile, _options(keep_timeline=True)
    )
    ev = planner.evaluate(64, 2, 2, 2)
    assert ev.timeline is not None
    assert ev.timeline.makespan == pytest.approx(ev.plan.pipeline_ms)


def test_self_conditioning_expectation(cluster8):
    model_sc = uniform_model(self_conditioning=True)
    model_plain = uniform_model(self_conditioning=False)
    from repro.profiling import Profiler

    prof = Profiler(cluster8).profile(model_sc)
    sc = DiffusionPipePlanner(model_sc, cluster8, prof, _options()).evaluate(
        64, 2, 2, 2
    )
    plain = DiffusionPipePlanner(model_plain, cluster8, prof, _options()).evaluate(
        64, 2, 2, 2
    )
    # The expected iteration with a 0.5-probability extra forward is
    # strictly longer than vanilla but far less than 2x.
    assert sc.plan.iteration_ms > plain.plan.iteration_ms
    assert sc.plan.iteration_ms < 1.7 * plain.plan.iteration_ms


def test_cdm_plan_is_bidirectional(cluster8, cascaded, cascaded_profile):
    planner = DiffusionPipePlanner(
        cascaded, cluster8, cascaded_profile, _options(cdm_cut_step=1)
    )
    ev = planner.evaluate(64, 2, 2, 2)
    assert ev.plan.partition.is_bidirectional
    # Throughput counts both backbones' samples.
    assert ev.plan.throughput == pytest.approx(
        2 * 64 / ev.plan.iteration_ms * 1e3
    )


def test_memory_gate_rejects_oversized(cluster8, uniform):
    """With a tiny device, every config OOMs and planning fails."""
    from repro.cluster import ClusterSpec, DeviceSpec
    from repro.profiling import Profiler

    tiny_dev = DeviceSpec(name="tiny", memory_bytes=1e3)
    tiny = ClusterSpec(num_machines=1, devices_per_machine=8, device_spec=tiny_dev)
    prof = Profiler(tiny).profile(uniform)
    planner = DiffusionPipePlanner(
        uniform, tiny, prof, _options(check_memory=True)
    )
    with pytest.raises(ConfigurationError):
        planner.plan(64)


def test_three_backbones_rejected(cluster8):
    from repro.models.zoo import timed_component
    from repro.models import ModelSpec

    comps = [
        timed_component(f"b{i}", [5.0] * 3, trainable=True) for i in range(3)
    ]
    model = ModelSpec("m3", comps, backbone_names=("b0", "b1", "b2"))
    with pytest.raises(ConfigurationError, match="two backbones"):
        DiffusionPipePlanner(model, cluster8)


def test_planner_options_validation():
    """Bad values fail at construction, not later inside ``plan()``."""
    for bad in (
        dict(max_stages=1),
        dict(max_stages=2.5),
        dict(group_sizes=(2.0,)),
        dict(group_sizes=(4, 1)),
        dict(fill_strategy="lookahead", lookahead_beam=2.5),
        dict(micro_batch_counts=()),
        dict(micro_batch_counts=(0,)),
        dict(micro_batch_counts=(-2,)),
        dict(micro_batch_counts=(2.5,)),
        dict(partial_batch_menu=(0,)),
        dict(cdm_cut_step=0),
        dict(min_bubble_ms=-1.0),
    ):
        with pytest.raises(ConfigurationError):
            PlannerOptions(**bad)


#: every count the planner takes through ``positive_int``, set to True
#: (a ``bool`` is an ``Integral`` equal to 1, and hashes like it)
BOOL_COUNTS = {
    "micro_batch_counts": lambda planner: PlannerOptions(micro_batch_counts=(True,)),
    "partial_batch_menu": lambda planner: PlannerOptions(partial_batch_menu=(True,)),
    "cdm_cut_step": lambda planner: PlannerOptions(cdm_cut_step=True),
    "lookahead_beam": lambda planner: PlannerOptions(lookahead_beam=True),
    "elastic_machines": lambda planner: ElasticEvent("join", machines=True),
    "evaluate_num_micro": lambda planner: planner.evaluate(64, 2, 2, True),
}


@pytest.mark.parametrize("case", sorted(BOOL_COUNTS))
def test_bool_is_not_a_count(case, cluster8, uniform, uniform_profile):
    """``True`` is rejected wherever a count is: an ``evaluate`` with
    ``num_micro=True`` used to return a plan labelled ``M=True`` and
    leave it in the caches, where ``evaluate(..., 1)`` found it."""
    planner = DiffusionPipePlanner(
        uniform, cluster8, uniform_profile, caches=PlannerCaches()
    )
    with pytest.raises(ConfigurationError):
        BOOL_COUNTS[case](planner)
    assert planner.evaluate(64, 2, 2, 1).plan.config_label == "S=2 M=1 D=2 dp=4"


@pytest.mark.parametrize("menu", [
    dict(group_sizes=()),
    dict(group_sizes=(4, 4)),
    dict(micro_batch_counts=(2, 2)),
], ids=["empty-groups", "repeated-group", "repeated-micro"])
def test_search_menus_are_nonempty_and_distinct(menu):
    """An empty ``group_sizes`` used to read as None (every divisor of
    the world), and a repeated entry planned its configurations twice."""
    with pytest.raises(ConfigurationError, match="non-empty|distinct"):
        PlannerOptions(**menu)


def test_planner_engines_agree_end_to_end(uniform, uniform_profile, cluster8):
    """The full planner sweep is bit-identical under both DP engines."""
    plans = {}
    for kern in ("array", "reference"):
        with dp_engine(kern):
            planner = DiffusionPipePlanner(
                uniform, cluster8, uniform_profile,
                _options(), caches=PlannerCaches(),
            )
            plans[kern] = planner.plan(64)
    a, r = plans["array"], plans["reference"]
    assert a.plan.throughput.hex() == r.plan.throughput.hex()
    assert a.plan.iteration_ms.hex() == r.plan.iteration_ms.hex()
    assert a.plan.partition == r.plan.partition


def test_heterogeneous_flag_opens_non_divisible_configs(uniform, uniform_profile):
    """With heterogeneous replication the sweep keeps (S, D) combos
    where S does not divide D, and evaluating one yields a valid plan."""
    from repro.cluster import single_node

    cluster = single_node(6)
    hom = DiffusionPipePlanner(
        uniform, cluster, uniform_profile,
        _options(group_sizes=(6,), micro_batch_counts=(1, 2)),
    )
    het = DiffusionPipePlanner(
        uniform, cluster, uniform_profile,
        _options(group_sizes=(6,), micro_batch_counts=(1, 2),
                 heterogeneous_replication=True),
    )
    hom_configs = set(hom.candidate_configs(12))
    het_configs = set(het.candidate_configs(12))
    assert all(D % S == 0 for D, S, _ in hom_configs)
    assert any(D % S != 0 for D, S, _ in het_configs)
    assert hom_configs <= het_configs

    ev = het.evaluate(12, group_size=6, num_stages=4, num_micro=2)
    assert ev is not None
    chain = ev.plan.partition.down
    assert sum(st.replicas for st in chain) <= 6
    assert all(st.replicas >= 1 for st in chain)
    assert ev.plan.partition.group_size == 6


def test_heterogeneous_floor_is_per_stage(uniform, uniform_profile):
    """The homogeneous feasibility floor (micro_batch / (D/S) >= 1)
    must not prune heterogeneous configs: the het DP picks per-stage
    replicas itself, capped at floor(micro_batch)."""
    from repro.cluster import single_node

    cluster = single_node(6)
    opts = dict(group_sizes=(6,), micro_batch_counts=(2,))
    hom = DiffusionPipePlanner(
        uniform, cluster, uniform_profile, _options(**opts)
    )
    het = DiffusionPipePlanner(
        uniform, cluster, uniform_profile,
        _options(heterogeneous_replication=True, **opts),
    )
    # Batch 4, M=2 -> micro-batch 2: uniform r=3 would need 3 samples,
    # so the homogeneous sweep prunes (D=6, S=2) — but r=(2, 2) etc.
    # are perfectly runnable.
    assert (6, 2, 2) not in set(hom.candidate_configs(4))
    assert (6, 2, 2) in set(het.candidate_configs(4))
    ev = het.evaluate(4, group_size=6, num_stages=2, num_micro=2)
    assert ev is not None
    chain = ev.plan.partition.down
    assert all(ev.plan.partition.micro_batch / st.replicas >= 1.0 for st in chain)


def test_candidate_configs_exact_divisibility(uniform, uniform_profile):
    """Divisibility is tested with exact rational arithmetic.  The old
    float formulation computed ``batch_per_group = global_batch / dp``
    with binary rounding: past 2^53 the quotient snaps to the nearest
    representable float, so ``% M`` both rejected feasible splits and
    admitted infeasible ones."""
    from repro.cluster import single_node

    planner = DiffusionPipePlanner(
        uniform, single_node(16), uniform_profile,
        _options(group_sizes=(8,), micro_batch_counts=(2, 3), max_stages=2),
    )
    # world 16, D=8 -> dp=2.  batch_per_group = 2^53 + 1 exactly — an
    # odd multiple of 3 whose float rounds to the even 2^53.
    global_batch = 2 * (2**53 + 1)
    configs = set(planner.candidate_configs(global_batch))
    # Feasible: (2^53 + 1) % 3 == 0; float arithmetic said 2 != 0.
    assert (8, 2, 3) in configs
    # Infeasible: 2^53 + 1 is odd; float arithmetic said % 2 == 0.
    assert (8, 2, 2) not in configs


@pytest.mark.parametrize("batch", [float("nan"), float("inf"), 0, -8])
def test_bad_global_batch_rejected_up_front(batch, cluster8, uniform, uniform_profile):
    """A non-finite or non-positive global batch is a configuration
    error naming the value, from both entry points, before any search
    (NaN and inf used to escape as ValueError / OverflowError from the
    exact-divisibility test, 0 and -8 as "no feasible configuration")."""
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    for entry in (planner.plan, planner.candidate_plans):
        with pytest.raises(ConfigurationError, match=f"got {batch!r}"):
            entry(batch)


@pytest.mark.parametrize(
    "args, match",
    [
        ((float("nan"), 2, 2, 2), "finite and positive"),
        ((float("inf"), 2, 2, 2), "finite and positive"),
        ((0, 2, 2, 2), "finite and positive"),
        ((-64, 2, 2, 2), "finite and positive"),
        ((64, 2, 2, 0), "num_micro must be an integer"),
        ((64, 2.0, 2, 2), "group_size must be an integer"),
        ((64, 2, 2.5, 2), "num_stages must be an integer"),
        ((64, 3, 3, 1), "group size 3 does not divide world size 8"),
        ((64, 2, 2, 3), "micro-batch of 5.33333 samples"),
        ((63, 2, 2, 2), "per-group batch of 15.75 samples"),
    ],
    ids=[
        "nan-batch", "inf-batch", "zero-batch", "negative-batch",
        "zero-micro", "float-group", "float-stages", "group-not-divisor",
        "fractional-micro-batch", "fractional-group-batch",
    ],
)
def test_evaluate_rejects_bad_inputs_up_front(
    args, match, cluster8, uniform, uniform_profile
):
    """``evaluate`` validates its configuration before partitioning, as
    ``plan`` and ``candidate_configs`` do.  These used to fail deep in
    the stack (NaN in ``StageExec``, M = 0 as ZeroDivisionError, a float
    group size as TypeError), return None (inf, 0, a negative batch), or
    return a plan of fractional micro-batches or group batches."""
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    with pytest.raises(ConfigurationError, match=match):
        planner.evaluate(*args)


def test_evaluate_infeasible_configs_return_none(cluster8, uniform, uniform_profile):
    """Well-formed but infeasible configurations are not errors: more
    stages than devices, and micro-batches below the uniform replica
    count (8 / 2 = 4 replicas for 2 samples), evaluate to None."""
    planner = DiffusionPipePlanner(uniform, cluster8, uniform_profile, _options())
    assert planner.evaluate(64, 2, 4, 2) is None
    assert planner.evaluate(64, 8, 2, 32) is None


def test_heterogeneous_flag_opens_non_divisible_cdm_configs(
    cascaded, cascaded_profile
):
    """Cascaded models now participate in heterogeneous sweeps: the
    bidirectional DP assigns per-position replica counts, so (S, D)
    combos with S !| D are admitted and evaluate to valid plans."""
    from repro.cluster import single_node

    cluster = single_node(6)
    opts = dict(group_sizes=(6,), micro_batch_counts=(1, 2), cdm_cut_step=1)
    hom = DiffusionPipePlanner(
        cascaded, cluster, cascaded_profile, _options(**opts)
    )
    het = DiffusionPipePlanner(
        cascaded, cluster, cascaded_profile,
        _options(heterogeneous_replication=True, **opts),
    )
    hom_configs = set(hom.candidate_configs(12))
    het_configs = set(het.candidate_configs(12))
    assert all(D % S == 0 for D, S, _ in hom_configs)
    assert any(D % S != 0 for D, S, _ in het_configs)
    assert hom_configs <= het_configs

    ev = het.evaluate(12, group_size=6, num_stages=4, num_micro=2)
    assert ev is not None
    p = ev.plan.partition
    assert p.is_bidirectional
    S = p.num_stages
    assert sum(st.replicas for st in p.down) <= 6
    for i in range(S):
        assert p.down[i].replicas == p.up[S - 1 - i].replicas


def test_bidirectional_timeline_weights_cover_both_chains(
    cascaded, cascaded_profile
):
    """Chain position i hosts down stage i and up stage S-1-i, so the
    simulator's device weights must be derived from both chains — on a
    heterogeneous plan they vary per position."""
    from repro.cluster import single_node

    cluster = single_node(6)
    planner = DiffusionPipePlanner(
        cascaded, cluster, cascaded_profile,
        _options(group_sizes=(6,), micro_batch_counts=(2,), cdm_cut_step=1,
                 heterogeneous_replication=True, keep_timeline=True),
    )
    ev = planner.evaluate(12, group_size=6, num_stages=4, num_micro=2)
    assert ev is not None and ev.timeline is not None
    p = ev.plan.partition
    S = p.num_stages
    for i in range(S):
        expected = max(p.down[i].replicas, p.up[S - 1 - i].replicas)
        assert ev.timeline.device_weights[i] == expected
    assert ev.timeline.total_physical_devices == sum(
        st.replicas for st in p.down
    )


def test_eval_cache_shared_across_planners(cluster8, uniform, uniform_profile):
    """Planners sharing one PlannerCaches (same model/profile/options)
    reuse each other's simulate-and-fill results; filling ablations get
    distinct entries (the filling knobs are part of the key)."""
    from repro.core import PlannerCaches

    caches = PlannerCaches()
    DiffusionPipePlanner(
        uniform, cluster8, uniform_profile, _options(), caches=caches
    ).plan(64)
    n = len(caches.evals)
    assert n > 0
    DiffusionPipePlanner(
        uniform, cluster8, uniform_profile, _options(), caches=caches
    ).plan(64)
    assert len(caches.evals) == n
    DiffusionPipePlanner(
        uniform, cluster8, uniform_profile,
        _options(enable_bubble_filling=False), caches=caches,
    ).plan(64)
    assert len(caches.evals) > n


def test_timeline_cache_lru():
    """The timeline memo is a bounded LRU: hits move entries to the
    back, inserts at capacity evict the least recently used, and the
    store counts hits/misses/evictions."""
    from repro.core.lru import LruStore

    assert isinstance(PlannerCaches().timelines, LruStore)
    timelines = LruStore(3, name="timelines")
    for i in range(3):
        timelines.put(("k", i), f"tl{i}")
    # Touch the oldest entry: it becomes most-recently-used.
    assert timelines.get(("k", 0)) == "tl0"
    timelines.put(("k", 3), "tl3")
    # ("k", 1) was the LRU entry and is the only one evicted.
    assert timelines.get(("k", 1)) is None
    assert timelines.get(("k", 0)) == "tl0"
    assert timelines.get(("k", 2)) == "tl2"
    assert timelines.get(("k", 3)) == "tl3"
    # Re-inserting an existing key refreshes it without evicting.
    timelines.put(("k", 0), "tl0")
    assert len(timelines) == 3
    stats = timelines.stats()
    assert stats.hits == 4 and stats.misses == 1 and stats.evictions == 1


def test_interleaved_t_max_bounds_the_simulated_makespan():
    """Each device of the interleaved family runs its ``v`` chunks on
    every micro-batch, so the chunked DP's objective prices ``v·M``
    steady chunk slots, ``(v·M + 2vS − 2)·w + y``.  On SD v2.1 without
    self-conditioning on 8 GPUs at b = 128 and 256, no finalist's
    simulated makespan then exceeds its ``t_max_ms`` (16 of the 50 did,
    by up to 1.53×, while the steady term was ``M·w``)."""
    from repro.cluster import single_node
    from repro.models.zoo import stable_diffusion_v2_1
    from repro.profiling import Profiler

    cluster = single_node(8)
    model = stable_diffusion_v2_1(self_conditioning=False)
    profile = Profiler(cluster).profile(model)
    finalists = 0
    for batch in (128, 256):
        planner = DiffusionPipePlanner(
            model, cluster, profile,
            PlannerOptions(schedule="interleaved"),
            caches=PlannerCaches.cold([profile]),
        )
        for cfg in planner.candidate_configs(batch):
            gated = planner._gate(batch, *cfg)
            if gated is None:
                continue
            gate, per_group = gated
            for partition, _, _ in gate:
                finalists += 1
                makespan = planner._simulate(partition, per_group, sc=False).makespan
                assert makespan <= partition.t_max_ms, (batch, cfg)
    assert finalists == 50
