"""The benchmark's workloads and the loops that measure them.

Every workload plans Stable Diffusion v2.1 (with self-conditioning) or
CDM-LSUN on two p4de machines (16 A100s) through the public API:
``DiffusionPipePlanner.plan`` and ``ElasticSession.replan``.  The seed
only shapes the inputs the planner sees (the order of the global
batches, the join/leave stream); README.md says why each workload
exists and which ROADMAP item it serves.

"Cold" always means a fresh ``PlannerCaches`` *and*
``caches.clear([profile])``, which also empties the profile's
interpolation memos.  The process-wide ``default_caches()`` is never
used; :func:`run` fails the run if anything created it.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import repro.core.caches as caches_mod
from repro.cluster.topology import ClusterSpec, p4de_cluster
from repro.core import (
    DiffusionPipePlanner,
    ElasticEvent,
    ElasticSession,
    PlannerCaches,
    PlannerOptions,
)
from repro.models import zoo
from repro.models.graph import ModelSpec
from repro.profiling import Profiler
from repro.profiling.records import ProfileDB

from checks import Ledger
from timing import Sample, timed
from tracer import Tracer, layer_metrics

#: global batches of the cold workloads; every round plans each once
BATCHES = (128, 256, 512)
#: set-ups before the measured work; more follow between operations,
#: at most one every ``SETUP_EVERY_S``
SETUP_REPEATS = 20
SETUP_EVERY_S = 0.25
#: replans of a membership already planned, per warm step of a cold op:
#: single few-millisecond samples are at the mercy of one interrupt
HIT_REPEATS = 5
#: join/leave events per churn stream, after the stream's cold replan;
#: a long stream visits nearly all 40 memberships, so the mean plan
#: throughput over the memberships planned is nearly seed-independent
STREAM_EVENTS = 1000
#: events between two extra cold replans of the initial membership
COLD_EVERY = 100
#: speed factor of a joining machine (None: full speed)
JOIN_SPEEDS = (None, None, 0.5, 0.8)
#: per-device batch of the churn sessions (weak scaling)
CHURN_BATCH_PER_DEVICE = 16.0
MIN_MACHINES, MAX_MACHINES = 1, 4


@dataclass(frozen=True)
class Workload:
    make_model: Callable[[], ModelSpec]
    options: PlannerOptions
    churn: bool


WORKLOADS = {
    # Fill-bound: the lookahead fill is most of a cold plan.
    "sd16-lookahead-cold": Workload(
        zoo.stable_diffusion_v2_1,
        PlannerOptions(fill_strategy="lookahead"),
        churn=False,
    ),
    # Partition-bound: the heterogeneous CDM DP is nearly all of it.
    "cdm16-het-cold": Workload(
        zoo.cdm_lsun,
        PlannerOptions(heterogeneous_replication=True),
        churn=False,
    ),
    # Cache-bound: most replans are served by the shared stores.
    "sd-elastic-churn": Workload(
        zoo.stable_diffusion_v2_1,
        PlannerOptions(group_sizes=(2, 4, 8)),
        churn=True,
    ),
}


@dataclass
class Env:
    model: ModelSpec
    cluster: ClusterSpec
    profile: ProfileDB


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    record: dict
    #: every timing sample (seconds) by metric and group, untraced runs
    samples: dict
    tracer: Tracer | None = None


def _setup_once(workload: Workload) -> Env:
    cluster = p4de_cluster(2)
    model = workload.make_model()
    return Env(model, cluster, Profiler(cluster).profile(model))


def setup(workload: Workload, repeats: int) -> tuple[Env, list[Sample]]:
    """Fig. 7 step 1, repeated; the last environment and every timing."""
    times = []
    for _ in range(repeats):
        env, sample = timed(lambda: _setup_once(workload))
        times.append(sample)
    return env, times


class SetupSampler:
    """Times one more set-up after an operation, at most every
    ``SETUP_EVERY_S``.  Spread over the run, the samples outvote a slow
    spell at start-up, which on a shared machine can slow a whole batch
    of back-to-back set-ups by half."""

    def __init__(self, workload: Workload, times: list[Sample]):
        self.workload = workload
        self.times = times
        self._due = time.perf_counter() + SETUP_EVERY_S

    def __call__(self) -> None:
        if time.perf_counter() >= self._due:
            self.times += setup(self.workload, 1)[1]
            self._due = time.perf_counter() + SETUP_EVERY_S


def cold_caches(env: Env) -> PlannerCaches:
    caches = PlannerCaches()
    caches.clear([env.profile])
    gc.collect()
    return caches


def churn_stream(seed: int, index: int) -> list[ElasticEvent]:
    """A seeded join/leave stream that stays within 1-4 machines."""
    rng = random.Random(seed * 1_000_003 + index)
    machines = p4de_cluster(2).num_machines
    events = []
    for _ in range(STREAM_EVENTS):
        join = machines == MIN_MACHINES or (
            machines < MAX_MACHINES and rng.random() < 0.5
        )
        if join:
            events.append(ElasticEvent("join", speed_factor=rng.choice(JOIN_SPEEDS)))
            machines += 1
        else:
            events.append(ElasticEvent("leave"))
            machines -= 1
    return events


def summarise(samples: dict[str, dict[object, list[Sample]]]) -> dict[str, float]:
    """Each timing: the mean over its groups (the batches of a cold
    workload, the machine counts of a churn stream) of the median of
    the group's speed-normalised samples.  The mean over groups weighs
    the same mix the same on every seed and round count."""
    return {
        name: statistics.fmean(
            statistics.median(s.seconds for s in group)
            for group in groups.values()
            if group
        )
        for name, groups in samples.items()
    }


def _rounds(seconds: float, body: Callable[[int], None]) -> None:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        body(index)
        index += 1
        if time.perf_counter() >= deadline:
            return


# -- cold workloads ------------------------------------------------------------


def _batch_rounds(seconds: float, seed: int, one: Callable[[int], None]) -> None:
    """Whole rounds of ``one(batch)``: every batch once per round, in an
    order drawn from the seed."""
    rng = random.Random(seed)

    def body(_):
        for batch in rng.sample(BATCHES, len(BATCHES)):
            one(batch)

    _rounds(seconds, body)


def _cold_plan(env, workload, batch, ledger):
    caches = cold_caches(env)
    planner = DiffusionPipePlanner(
        env.model, env.cluster, env.profile, options=workload.options, caches=caches
    )
    got = ledger.run(f"plan b={batch}", lambda: planner.plan(batch), env.cluster, batch)
    return got, caches


def _cold_untraced(env, workload, seconds, seed, ledger):
    plan_s, replan_s, novel_s = (defaultdict(list) for _ in range(3))
    throughput = {}

    def one(batch):
        got, caches = _cold_plan(env, workload, batch, ledger)
        if got is None:
            return
        ev, seconds_ = got
        plan_s[batch].append(seconds_)
        throughput[batch] = ev.plan.throughput
        # One machine leaves and rejoins, in a session over the cold
        # plan's warm caches: the replan before the leave and after the
        # rejoin must hit the memos and return the cold plan again.
        session = ElasticSession(
            env.model,
            env.cluster,
            batch_per_device=batch / env.cluster.world_size,
            profile=env.profile,
            options=workload.options,
            caches=caches,
        )
        for step in ("warm", "leave", "join"):
            if step != "warm":
                session.apply(ElasticEvent(step))
            for _ in range(1 if step == "leave" else HIT_REPEATS):
                got = ledger.run(
                    f"replan b={batch} {step}",
                    session.replan,
                    session.cluster,
                    session.global_batch,
                    expect=None if step == "leave" else ev.plan,
                )
                if got is not None:
                    replan_s[batch].append(got[1])
                    if step == "leave":
                        novel_s[batch].append(got[1])

    _batch_rounds(seconds, seed, one)
    samples = {"plan_s": plan_s, "replan_s": replan_s, "replan_novel_s": novel_s}
    return samples, statistics.fmean(throughput.values())


def _cold_traced(env, workload, seconds, seed, ledger, tracer):
    """Alternates an untraced and a traced cold plan per batch, so the
    tracing overhead is measured on the same inputs."""
    walls = {False: defaultdict(list), True: defaultdict(list)}
    stats = []

    def one(batch):
        for traced in (False, True):
            if traced:
                tracer.op += 1
                with tracer.installed():
                    got, caches = _cold_plan(env, workload, batch, ledger)
                stats.append(caches.stats())
            else:
                got, _ = _cold_plan(env, workload, batch, ledger)
            if got is not None:
                walls[traced][batch].append(got[1])

    _batch_rounds(seconds, seed, one)
    overhead = summarise(walls)
    return layer_metrics(tracer, stats, overhead[True] - overhead[False])


# -- churn workload ------------------------------------------------------------


def _churn_session(env, workload) -> ElasticSession:
    return ElasticSession(
        env.model,
        env.cluster,
        batch_per_device=CHURN_BATCH_PER_DEVICE,
        profile=env.profile,
        options=workload.options,
        caches=cold_caches(env),
    )


def membership(cluster: ClusterSpec) -> str:
    """Operation key of a replan: the speed factor of each machine."""
    per = cluster.devices_per_machine
    return "replan " + ",".join(
        f"{cluster.speed_factor(m * per):g}" for m in range(cluster.num_machines)
    )


def _churn_stream_run(
    env, workload, seed, index, ledger, tracer=None, spare=None, deadline=None
):
    """A cold replan, then a replan after every event of stream
    ``index``, in one session.  With a ``spare`` environment (its own
    profile, so clearing it leaves the session's memos alone), a cold
    replan of the initial membership also runs every ``COLD_EVERY``
    events: spread over the run, a burst of machine noise cannot skew
    most of the cold samples.

    Replans are keyed by membership, so a membership must get the same
    plan on every visit, in every stream.  A stream stops early once
    ``deadline`` has passed.  Returns (cold replan
    samples, event replans as (sample, novel, machines), caches)."""
    session = _churn_session(env, workload)
    cold = []
    events = []
    seen = set()
    for i, event in enumerate([None, *churn_stream(seed, index)]):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if spare is not None and i and i % COLD_EVERY == 0:
            fresh = _churn_session(spare, workload)
            got = ledger.run(
                membership(fresh.cluster),
                fresh.replan,
                fresh.cluster,
                fresh.global_batch,
            )
            if got is not None:
                cold.append(got[1])
        if event is not None:
            session.apply(event)
        if tracer is not None:
            tracer.op += 1
        got = ledger.run(
            membership(session.cluster),
            session.replan,
            session.cluster,
            session.global_batch,
        )
        novel = session.cluster not in seen
        seen.add(session.cluster)
        if got is None:
            continue
        if event is None:
            cold.append(got[1])
        else:
            events.append((got[1], novel, session.cluster.num_machines))
    return cold, events, session.caches


def _churn_untraced(env, workload, seconds, seed, ledger):
    spare = Env(env.model, env.cluster, Profiler(env.cluster).profile(env.model))
    cold, replans = [], []
    deadline = time.perf_counter() + seconds

    def one(index):
        # The first stream runs whole, so that every run plans nearly
        # every membership; later ones stop at the deadline.
        c, events, _ = _churn_stream_run(
            env,
            workload,
            seed,
            index,
            ledger,
            spare=spare,
            deadline=deadline if index else None,
        )
        cold.extend(c)
        replans.extend(events)

    _rounds(seconds, one)
    # Grouped by machine count: a replan's cost grows with the cluster,
    # and the share of each size in a walk depends on the seed.
    every, novel = defaultdict(list), defaultdict(list)
    for sample, new, machines in replans:
        every[machines].append(sample)
        if new:
            novel[machines].append(sample)
    samples = {
        "plan_s": {"initial": cold},
        "replan_s": every,
        "replan_novel_s": novel,
    }
    # Each membership planned counts once: weighting by how long a
    # stream dwells in a membership would make plan quality depend on
    # the walk more than on the planner.
    throughput = [float.fromhex(h) for _, h in ledger.record.values()]
    return samples, statistics.fmean(throughput)


def _churn_traced(env, workload, seconds, seed, ledger, tracer):
    """Each stream runs untraced, then again traced in a fresh session."""
    walls = {False: {"events": []}, True: {"events": []}}
    stats = []

    def one(index):
        for traced in (False, True):
            if traced:
                with tracer.installed():
                    _, events, caches = _churn_stream_run(
                        env, workload, seed, index, ledger, tracer
                    )
                stats.append(caches.stats())
            else:
                _, events, _ = _churn_stream_run(env, workload, seed, index, ledger)
            walls[traced]["events"].extend(s for s, _, _ in events)

    _rounds(seconds, one)
    overhead = summarise(walls)
    return layer_metrics(tracer, stats, overhead[True] - overhead[False])


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        with tracer.installed():
            env, setup_times = setup(workload, SETUP_REPEATS)
        after = None
    else:
        env, setup_times = setup(workload, SETUP_REPEATS)
        after = SetupSampler(workload, setup_times)
    ledger = Ledger(
        env.model, env.profile, workload.options.heterogeneous_replication, after
    )
    samples = {}
    if trace:
        measure = _churn_traced if workload.churn else _cold_traced
        metrics = measure(env, workload, seconds, seed, ledger, tracer)
    else:
        measure = _churn_untraced if workload.churn else _cold_untraced
        samples, throughput = measure(env, workload, seconds, seed, ledger)
        samples["setup_s"] = {"setup": setup_times}
        metrics = summarise(samples)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics.update(
            plan_samples_per_s=throughput,
            peak_rss_mb=peak_kib / 1024,
            ok_share=1 - ledger.failed / ledger.attempted,
        )
    correct = ledger.failed == 0
    if caches_mod._default_caches is not None:
        print("the process-wide default_caches() was created", file=sys.stderr)
        correct = False
    return Result(
        metrics=metrics,
        attempted=ledger.attempted,
        failed=ledger.failed,
        correct=correct,
        record=ledger.record,
        samples=samples,
        tracer=tracer,
    )

