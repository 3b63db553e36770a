"""Spans around the planner's layers, recorded from outside ``src/``.

The program has no tracing of its own, so this module wraps the public
entry point of each layer (as the planner calls it) for the duration of
a traced operation and restores the originals afterwards.  Spans stay
in memory; :meth:`Tracer.write_chrome_trace` writes them when the run
ends, in the trace-event JSON that ``repro plan --trace`` emits.

Only the outermost call of a layer opens a span: the lookahead fill
re-enters ``BubbleFiller.fill``, and timing the inner calls again would
count their time twice.  A span's *self* time is its duration minus the
time of the spans opened inside it, so the phase self-times plus the
planner's own remainder add up to the ``plan()`` wall exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.planner as planner_mod
import repro.memory.estimator as estimator_mod
from repro.core import DiffusionPipePlanner, ElasticSession
from repro.core.filling import BubbleFiller
from repro.profiling.profiler import Profiler
from repro.schedule.families import SCHEDULE_FAMILIES

#: the planner phases of Fig. 7 steps 2-5, in pipeline order; every
#: other span inside ``plan`` is the planner's own remainder
PHASES = (
    "partition",
    "memory",
    "schedule",
    "simulate",
    "bubbles",
    "fill",
    "compose",
)

#: ``fill`` span attributes copied from the returned FillReport
_FILL_ATTRS = ("states_pruned", "beam_peak", "candidates_dropped")


@dataclass
class Span:
    layer: str
    op: int
    start: float
    tag: tuple[int, int, int] | None
    dur: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.dur - self.child


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: current operation id (-1: set-up); spans of one op share it
        self.op = -1
        #: (D, S, M) of the configuration being evaluated, if any
        self.tag: tuple[int, int, int] | None = None
        #: candidate configurations yielded by traced plans
        self.configs = 0
        #: inner calls of an already-open layer, not timed separately
        self.reentries: Counter = Counter()
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    def call(self, layer, fn, args, kwargs, attrs_of=None):
        if any(s.layer == layer for s in self._stack):
            self.reentries[layer] += 1
            return fn(*args, **kwargs)
        span = Span(layer, self.op, 0.0, self.tag)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(span)
            span.attrs["raised"] = type(exc).__name__
            raise
        self._close(span)
        if attrs_of is not None:
            span.attrs.update(attrs_of(result, args))
        return result

    def _close(self, span: Span) -> None:
        span.dur = time.perf_counter() - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.dur
        self.spans.append(span)

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, replacement factory) for every layer."""

        def timed(layer, attrs_of=None):
            def make(orig):
                def wrapper(*args, **kwargs):
                    return self.call(layer, orig, args, kwargs, attrs_of)

                return wrapper

            return make

        def evaluate(orig):
            def wrapper(planner, global_batch, group_size, num_stages, num_micro):
                outer = self.tag
                self.tag = (group_size, num_stages, num_micro)
                try:
                    return self.call(
                        "evaluate",
                        orig,
                        (planner, global_batch, group_size, num_stages, num_micro),
                        {},
                        lambda ev, _: {"feasible": int(ev is not None)},
                    )
                finally:
                    self.tag = outer

            return wrapper

        def candidate_configs(orig):
            def wrapper(*args, **kwargs):
                for cfg in orig(*args, **kwargs):
                    self.configs += 1
                    yield cfg

            return wrapper

        def winner(ev, _):
            p = ev.plan.partition
            return {"winner": (p.group_size, p.num_stages, p.num_micro_batches)}

        def fill_attrs(report, _):
            return {name: getattr(report, name) for name in _FILL_ATTRS}

        targets = [
            (Profiler, "profile", timed("profiling")),
            (ElasticSession, "replan", timed("replan")),
            (DiffusionPipePlanner, "plan", timed("plan", winner)),
            (DiffusionPipePlanner, "evaluate", evaluate),
            (DiffusionPipePlanner, "candidate_configs", candidate_configs),
            (planner_mod, "partition_backbone", timed("partition")),
            (planner_mod, "partition_cdm", timed("partition")),
            (
                estimator_mod,
                "pipeline_memory_report",
                timed("memory", lambda r, _: {"oom": int(not r.fits)}),
            ),
            (
                planner_mod,
                "simulate",
                timed("simulate", lambda _, a: {"tasks": len(a[0])}),
            ),
            (
                planner_mod,
                "extract_bubbles",
                timed("bubbles", lambda r, _: {"count": len(r)}),
            ),
            (BubbleFiller, "fill", timed("fill", fill_attrs)),
            (planner_mod, "compose_iteration", timed("compose")),
        ]
        for family in SCHEDULE_FAMILIES.values():
            targets.append((family, "build", timed("schedule")))
        return targets

    @contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, make in self._targets():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        """Write every span as a complete ("X") trace event; one track
        per operation, the (D, S, M) tag and self time in ``args``."""
        events = []
        for s in self.spans:
            args = {"self_ms": round(s.self_s * 1e3, 6), **s.attrs}
            if s.tag is not None:
                args["D"], args["S"], args["M"] = s.tag
            if "winner" in args:
                args["winner"] = list(args["winner"])
            events.append(
                {
                    "name": s.layer,
                    "ph": "X",
                    "ts": round((s.start - self._origin) * 1e6, 3),
                    "dur": round(s.dur * 1e6, 3),
                    "pid": "perfbench",
                    "tid": "setup" if s.op < 0 else f"op {s.op}",
                    "args": args,
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: every PlannerCaches store, as CacheStats names them
STORES = (
    "partition",
    "comm",
    "evals",
    "chains",
    "het",
    "cdm",
    "cdm_het",
    "prefixes",
    "kernel_plans",
    "timelines",
    "fills.expansions",
    "fills.prefixes",
    "fills.finals",
)
#: stores whose misses build a DP table (or an array-kernel plan)
TABLE_STORES = ("chains", "het", "cdm", "cdm_het", "kernel_plans")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stats, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    Times and counts are per traced ``plan()`` call; cache hit ratios
    pool every store's counters over ``stats`` (one ``CacheStats`` per
    traced ``PlannerCaches``), evictions are per ``plan()`` call.
    """
    spans = [s for s in tracer.spans if s.op >= 0]
    plans = [s for s in spans if s.layer == "plan"]
    n = len(plans)
    wall = sum(s.dur for s in plans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    summed: Counter = Counter()
    for s in spans:
        self_s[s.layer] += s.self_s
        calls[s.layer] += 1
        for key in ("tasks", "count", "oom", "feasible", *_FILL_ATTRS):
            summed[s.layer, key] += s.attrs.get(key, 0)
    # Every span inside plan() nests in it, so the self-times of the
    # layers under it add up to its wall; anything else is a tracer bug.
    inside = sum(
        t for layer, t in self_s.items() if layer not in ("profiling", "replan")
    )
    if abs(inside - wall) > 1e-6 * wall:
        raise RuntimeError(f"span self-times {inside} != plan() wall {wall}")
    phases_s = sum(self_s[p] for p in PHASES)
    winners = {s.op: s.attrs.get("winner") for s in plans}
    fills = [s for s in spans if s.layer == "fill"]
    useful = sum(1 for s in fills if s.tag == winners.get(s.op))

    totals = {name: [0, 0, 0] for name in STORES}
    fill_plans = [0, 0]
    for cs in stats:
        for st in cs.stores:
            if st.name in totals:
                t = totals[st.name]
                t[0] += st.hits
                t[1] += st.misses
                t[2] += st.evictions
        fill_plans[0] += cs.fill_plan_hits
        fill_plans[1] += cs.fill_plan_misses

    def ms(layer):
        return self_s[layer] * 1e3 / n

    oom = summed["memory", "oom"]
    infeasible = calls["evaluate"] - summed["evaluate", "feasible"] - oom
    m = {
        "profiling.ms": statistics.median(
            s.dur * 1e3 for s in tracer.spans if s.layer == "profiling"
        ),
        "plan.ms": wall * 1e3 / n,
        "trace.overhead_ms": overhead_s * 1e3,
        "planner.configs": tracer.configs / n,
        "planner.evaluated": summed["evaluate", "feasible"] / n,
        "planner.other_ms": (wall - phases_s) * 1e3 / n,
        "partition.ms": ms("partition"),
        "partition.share": _ratio(self_s["partition"], wall),
        "partition.calls": calls["partition"] / n,
        "partition.infeasible": infeasible / n,
        "partition.table_builds": sum(totals[name][1] for name in TABLE_STORES) / n,
        "memory.ms": ms("memory"),
        "memory.oom": oom / n,
        "schedule.build_ms": ms("schedule"),
        "simulate.ms": ms("simulate"),
        "simulate.calls": calls["simulate"] / n,
        "simulate.tasks": summed["simulate", "tasks"] / n,
        "bubbles.ms": ms("bubbles"),
        "bubbles.count": summed["bubbles", "count"] / n,
        "fill.ms": ms("fill"),
        "fill.share": _ratio(self_s["fill"], wall),
        "fill.calls": calls["fill"] / n,
        "fill.reentries": tracer.reentries["fill"] / n,
        "fill.states_pruned": summed["fill", "states_pruned"] / n,
        "fill.beam_peak": max((s.attrs.get("beam_peak", 0) for s in fills), default=0),
        "fill.candidates_dropped": summed["fill", "candidates_dropped"] / n,
        "fill.useful_ratio": _ratio(useful, len(fills)),
        "compose.ms": ms("compose"),
        "compose.calls": calls["compose"] / n,
    }
    for name, (hits, misses, evictions) in totals.items():
        m[f"caches.{name}.hit_ratio"] = _ratio(hits, hits + misses)
        m[f"caches.{name}.evictions"] = evictions / n
    m["caches.fill_plan_hit_ratio"] = _ratio(fill_plans[0], sum(fill_plans))
    return m
