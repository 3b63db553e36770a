"""``repro bench`` (:func:`repro.perf.run_bench`): schema and cold rounds.

A cold round must be cold in every memo, including the profile's
interpolation memos, which live on the :class:`ProfileDB` rather than
in :class:`PlannerCaches`.  The test records every profile reset and
every DP build or ``plan()`` made against empty caches, and requires
each such call to come straight after a reset of its profile.
"""

from __future__ import annotations

from repro import perf
from repro.core import DiffusionPipePlanner, PlannerCaches
from repro.perf import BENCH_SCHEMA, run_bench
from repro.profiling.records import ProfileDB


def _is_empty(caches: PlannerCaches) -> bool:
    return not any(s.entries for s in caches.stats().stores)


def test_run_bench_schema_and_cold_rounds(monkeypatch):
    events = []
    reset = ProfileDB.reset_caches

    def spy_reset(profile):
        events.append(("reset", profile))
        reset(profile)

    monkeypatch.setattr(ProfileDB, "reset_caches", spy_reset)

    def record(profile, caches):
        if _is_empty(caches):
            events.append(("cold", profile))

    def wrap_build(name):
        build = getattr(perf, name)

        def wrapper(ctx, *args, **kwargs):
            caches = next(a for a in args if isinstance(a, PlannerCaches))
            record(getattr(ctx, "down", ctx).profile, caches)
            return build(ctx, *args, **kwargs)

        monkeypatch.setattr(perf, name, wrapper)

    for name in ("_chain_frontiers", "_het_frontiers", "_cdm_frontiers"):
        wrap_build(name)
    plan = DiffusionPipePlanner.plan

    def wrap_plan(planner, batch):
        record(planner.profile, planner.caches)
        return plan(planner, batch)

    monkeypatch.setattr(DiffusionPipePlanner, "plan", wrap_plan)

    report = run_bench(best_of=1)

    assert set(report) == {"schema", "best_of", "builds", "elastic", "sweep"}
    assert report["schema"] == BENCH_SCHEMA and report["best_of"] == 1
    assert {(b["dp"], b["engine"]) for b in report["builds"]} == {
        (dp, engine)
        for dp in ("chain", "het1f1b", "cdm")
        for engine in ("array", "reference")
    }
    for build in report["builds"]:
        assert set(build) == {"dp", "shape", "engine", "cold_s", "warm_s"}
    assert set(report["elastic"]) == {
        "model", "machines", "devices_per_machine", "cold_s", "warm_s"
    }
    assert set(report["sweep"]) == {
        "model", "gpus", "batch", "wall_s", "throughput"
    }

    cold = [i for i, (kind, _) in enumerate(events) if kind == "cold"]
    # Six DP builds, the elastic cold plan, the elastic session's first
    # replan and the sweep's plan.
    assert len(cold) == len(report["builds"]) + 3
    for i in cold:
        assert events[i - 1] == ("reset", events[i][1]), (
            f"cold call {i} did not follow a reset of its profile"
        )
