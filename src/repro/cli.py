"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the model zoo.
``plan``
    Run the DiffusionPipe front-end for one model/cluster/batch and
    print the chosen configuration (optionally dumping the plan JSON
    and a Chrome trace of the pipeline timeline).
``sweep``
    Compare DiffusionPipe against all baselines over a batch list.
``table1`` / ``table2``
    Print the profiling tables of §2.
``bench``
    Measure headline performance numbers (cold/warm builds of the
    array DP kernels' tables, one sweep's wall-clock, one elastic
    replan) and print them, or emit stable-schema JSON with ``--json``
    for CI artifacts.
``snapshot``
    Warm the planner caches with a sweep and persist them to disk.
``analyze``
    Run the static invariant rules (AST engine) over the package —
    cache ownership, registry-only builders, lock discipline,
    determinism, float equality — and exit non-zero on findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .baselines import (
    DataParallelBaseline,
    GPipeBaseline,
    SPPBaseline,
    Zero3Baseline,
)
from .cluster import p4de_cluster, single_node
from .core import (
    DiffusionPipePlanner,
    PlannerCaches,
    PlannerOptions,
    extract_bubbles,
    fill_strategy_names,
)
from .errors import ReproError
from .harness import format_table, pct
from .models import zoo
from .profiling import Profiler
from .schedule import schedule_family_names

MODELS: dict[str, Callable] = {
    "sd": zoo.stable_diffusion_v2_1,
    "controlnet": zoo.controlnet_v1_0,
    "cdm-lsun": zoo.cdm_lsun,
    "cdm-imagenet": zoo.cdm_imagenet,
    "dit": zoo.dit_xl,
}


def _build_model(name: str, self_conditioning: bool | None):
    if name not in MODELS:
        raise SystemExit(f"unknown model {name!r}; options: {sorted(MODELS)}")
    factory = MODELS[name]
    if name in ("cdm-lsun", "cdm-imagenet"):
        return factory()
    if self_conditioning is None:
        return factory()
    return factory(self_conditioning=self_conditioning)


def _parse_speed_factors(items) -> dict[int, float] | None:
    """``RANK=FACTOR`` pairs into the ClusterSpec override mapping."""
    if not items:
        return None
    out: dict[int, float] = {}
    for item in items:
        rank, sep, factor = item.partition("=")
        try:
            if not sep:
                raise ValueError
            out[int(rank)] = float(factor)
        except ValueError:
            raise SystemExit(
                f"--speed-factors entries look like RANK=FACTOR "
                f"(e.g. 0=0.5), got {item!r}"
            )
    return out


def _build_cluster(gpus: int, speed_factors=None):
    """Multiples of 8 GPUs map to p4de machines; smaller or odd counts
    model one NVSwitch node — e.g. ``--gpus 6`` plans the non-divisible
    clusters the heterogeneous DPs exist for."""
    if gpus < 2:
        raise SystemExit("--gpus must be at least 2")
    factors = _parse_speed_factors(speed_factors)
    try:
        if gpus % 8 == 0:
            return p4de_cluster(gpus // 8, speed_factors=factors)
        if gpus > 8:
            raise SystemExit(
                "--gpus beyond one machine must be a multiple of 8 (p4de)"
            )
        return single_node(gpus, speed_factors=factors)
    except ReproError as exc:
        # Out-of-range ranks, non-positive factors.
        raise SystemExit(f"invalid --speed-factors: {exc}")


def _group_sizes(cluster) -> tuple[int, ...]:
    """Pipeline-group menu: sizes within the paper's practical range
    (groups fit one machine) that tile both the world and the machine.

    Groups are contiguous rank blocks, so a size that does not divide
    the per-machine device count would make some groups straddle the
    inter-node link while the planner prices every group off the first
    (intra-node) one — e.g. D=6 on 24 p4de GPUs.  Requiring ``d |
    devices_per_machine`` keeps every group on one machine.
    """
    world = cluster.world_size
    per = cluster.devices_per_machine
    return tuple(
        d
        for d in range(2, min(world, per) + 1)
        if world % d == 0 and per % d == 0
    )


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in MODELS.items():
        model = factory()
        rows.append(
            [
                name,
                model.name,
                ", ".join(model.backbone_names),
                str(sum(c.num_layers for c in model.non_trainable)),
                "yes" if model.self_conditioning else "no",
            ]
        )
    print(
        format_table(
            ["key", "model", "backbones", "frozen layers", "self-cond"], rows
        )
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    model = _build_model(args.model, args.self_conditioning)
    cluster = _build_cluster(args.gpus, args.speed_factors)
    profile = Profiler(cluster).profile(model)
    try:
        # Construction validates option combinations too (e.g. an
        # explicit --schedule that mismatches the model's backbone
        # count, or a chunked schedule with --heterogeneous).
        planner = DiffusionPipePlanner(
            model,
            cluster,
            profile,
            options=PlannerOptions(
                group_sizes=_group_sizes(cluster),
                keep_timeline=True,
                heterogeneous_replication=args.heterogeneous,
                fill_strategy=args.fill_strategy,
                lookahead_beam=args.lookahead_beam,
                schedule=args.schedule,
            ),
        )
        ev = planner.plan(args.batch)
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    plan = ev.plan
    rows = [
        ["configuration", plan.config_label],
        ["schedule", plan.schedule],
        ["iteration", f"{plan.iteration_ms:.1f} ms"],
        ["throughput", f"{plan.throughput:.1f} samples/s"],
        ["bubble ratio", f"{pct(plan.bubble_ratio_unfilled)} -> "
                         f"{pct(plan.bubble_ratio_filled)}"],
        ["NT leftover", f"{plan.leftover_ms:.1f} ms"],
    ]
    if plan.fill is not None:
        fill = plan.fill
        rows.append(["fill strategy", fill.strategy])
        rows.append(["fill fraction", pct(fill.fill_fraction)])
        filled_bubbles = sum(1 for u in fill.per_bubble if u.filled_ms > 0)
        rows.append(["bubbles filled",
                     f"{filled_bubbles}/{fill.num_bubbles}"])
        if fill.candidates_dropped:
            rows.append(["candidates dropped", str(fill.candidates_dropped)])
        if fill.beam_peak:
            rows.append(["beam peak", str(fill.beam_peak)])
            rows.append(["states pruned", str(fill.states_pruned)])
    if plan.memory:
        rows.append(["peak memory", f"{plan.memory.peak_bytes / 1e9:.1f} GB"])
    print(format_table(["metric", "value"],
                       rows, title=f"{model.name} @ batch {args.batch}"))
    if args.out:
        from .export import save_plan

        save_plan(plan, args.out)
        print(f"plan written to {args.out}")
    if args.trace and ev.timeline is not None:
        from .export import timeline_to_chrome_trace

        bubbles = extract_bubbles(ev.timeline)
        meta = {i: (b.start, b.devices) for i, b in enumerate(bubbles)}
        timeline_to_chrome_trace(
            ev.timeline,
            plan.fill.items if plan.fill else (),
            meta,
            path=args.trace,
        )
        print(f"chrome trace written to {args.trace}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    model = _build_model(args.model, args.self_conditioning)
    cluster = _build_cluster(args.gpus, args.speed_factors)
    profile = Profiler(cluster).profile(model)
    opts = PlannerOptions(
        group_sizes=_group_sizes(cluster),
        heterogeneous_replication=args.heterogeneous,
        fill_strategy=args.fill_strategy,
        lookahead_beam=args.lookahead_beam,
        schedule=args.schedule,
    )
    try:
        planner = DiffusionPipePlanner(model, cluster, profile, options=opts)
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    engines = []
    if len(model.backbone_names) == 1:
        engines = [
            SPPBaseline(model, cluster, profile, options=opts),
            GPipeBaseline(model, cluster, profile),
            DataParallelBaseline(model, cluster, profile),
            Zero3Baseline(model, cluster, profile),
        ]
    rows = []
    for batch in args.batches:
        row = [str(batch)]
        try:
            row.append(f"{planner.plan(batch).plan.throughput:.0f}")
        except ReproError:
            row.append("OOM")
        for eng in engines:
            try:
                res = eng.run(batch)
                row.append("OOM" if res.oom else f"{res.throughput:.0f}")
            except ReproError:
                row.append("-")
        rows.append(row)
    headers = ["batch", "DiffusionPipe"] + [e.name for e in engines]
    print(format_table(headers, rows,
                       title=f"{model.name} on {args.gpus} GPUs (samples/s)"))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    cluster = p4de_cluster(1)
    rows = []
    for key in ("sd", "controlnet"):
        model = _build_model(key, None)
        profile = Profiler(cluster).profile(model)
        row = [model.name]
        for b in (8, 16, 32, 64):
            nt = sum(
                profile.component_fwd_ms(c.name, b) for c in model.non_trainable
            )
            t = sum(
                profile.component_train_ms(n, b) for n in model.backbone_names
            )
            row.append(pct(nt / t, 0))
        rows.append(row)
    print(format_table(["Model / Batch size", "8", "16", "32", "64"], rows,
                       title="Table 1 - NT/T forward ratio"))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = []
    for key in ("sd", "controlnet"):
        model = _build_model(key, None)
        row = [model.name]
        for machines in (1, 2, 4, 8):
            cluster = p4de_cluster(machines)
            profile = Profiler(cluster).profile(model)
            res = DataParallelBaseline(model, cluster, profile).run(
                8 * cluster.world_size
            )
            row.append(pct(res.sync_share))
        rows.append(row)
    print(format_table(["Model / GPU count", "8", "16", "32", "64"], rows,
                       title="Table 2 - sync share of DDP iteration"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .perf import format_bench, run_bench, write_json

    report = run_bench(best_of=args.best_of, sweep=not args.skip_sweep)
    print(format_bench(report))
    if args.json:
        write_json(report, args.json)
        print(f"bench report written to {args.json}")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    model = _build_model(args.model, None)
    cluster = _build_cluster(args.gpus)
    profile = Profiler(cluster).profile(model)
    # A private instance, so the file holds exactly this sweep's entries.
    caches = PlannerCaches()
    planner = DiffusionPipePlanner(
        model,
        cluster,
        profile,
        options=PlannerOptions(
            group_sizes=_group_sizes(cluster),
            heterogeneous_replication=args.heterogeneous,
            fill_strategy=args.fill_strategy,
        ),
        caches=caches,
    )
    for batch in args.batches:
        try:
            planner.plan(batch)
        except ReproError as exc:
            # Like `repro sweep`'s OOM cells: report and keep warming.
            print(f"batch {batch}: planning failed: {exc}", file=sys.stderr)
    total = sum(caches.snapshot(args.out).values())
    print(f"{total} cache entries written to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis import analyze, get_rule, rule_names

    if args.list_rules:
        rows = []
        for name in rule_names():
            rule = get_rule(name)
            rows.append([name, ", ".join(rule.scope), rule.description])
        print(format_table(["rule", "scope", "description"], rows,
                           title="repro analyze rules"))
        return 0
    try:
        selected = tuple(args.rules) if args.rules else rule_names()
        for name in selected:
            get_rule(name)  # validates; unknown ids raise
        findings = analyze(
            paths=[Path(p) for p in args.paths] if args.paths else None,
            rule_names_=selected,
        )
    except ReproError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {
                "rules": list(selected),
                "count": len(findings),
                "findings": [f.as_dict() for f in findings],
            },
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro analyze: {len(findings)} {noun} "
              f"({len(selected)} rules)")
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DiffusionPipe reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(
        func=cmd_models
    )

    p = sub.add_parser("plan", help="plan one training configuration")
    p.add_argument("--model", default="sd", choices=sorted(MODELS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--self-conditioning", action="store_true", default=None)
    p.add_argument("--heterogeneous", action="store_true",
                   help="allow per-stage replica counts (non-divisible S, D) "
                        "for all models; for cdm-* each chain position's "
                        "count is shared by its co-located down/up stages")
    p.add_argument("--speed-factors", nargs="+", metavar="RANK=FACTOR",
                   help="per-device relative compute speeds (1.0 nominal), "
                        "e.g. '0=0.5' runs rank 0 at half speed; the "
                        "partitioner prices each stage window at its "
                        "bottleneck device")
    p.add_argument("--fill-strategy", default="greedy",
                   choices=fill_strategy_names(),
                   help="bubble-filling policy: greedy (the paper's "
                        "Algorithms 1+2), lookahead (plans across bubbles, "
                        "never worse than greedy), none (leave bubbles idle)")
    p.add_argument("--lookahead-beam", type=int, default=64,
                   help="beam-width cap of the lookahead fill strategy; "
                        "it runs narrower by default and widens up to "
                        "this at decision points")
    p.add_argument("--schedule", default="auto",
                   choices=("auto",) + schedule_family_names(),
                   help="pipeline schedule family; auto picks onef1b for "
                        "single-backbone models and bidirectional for "
                        "cascaded ones")
    p.add_argument("--out", help="write the plan JSON here")
    p.add_argument("--trace", help="write a chrome trace here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="compare against the baselines")
    p.add_argument("--model", default="sd", choices=sorted(MODELS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[64, 128, 256, 384])
    p.add_argument("--self-conditioning", action="store_true", default=None)
    p.add_argument("--heterogeneous", action="store_true",
                   help="allow per-stage replica counts (non-divisible S, D) "
                        "for all models; for cdm-* each chain position's "
                        "count is shared by its co-located down/up stages")
    p.add_argument("--speed-factors", nargs="+", metavar="RANK=FACTOR",
                   help="per-device relative compute speeds (1.0 nominal), "
                        "e.g. '0=0.5' runs rank 0 at half speed; the "
                        "partitioner prices each stage window at its "
                        "bottleneck device")
    p.add_argument("--fill-strategy", default="greedy",
                   choices=fill_strategy_names(),
                   help="bubble-filling policy: greedy (the paper's "
                        "Algorithms 1+2), lookahead (plans across bubbles, "
                        "never worse than greedy), none (leave bubbles idle)")
    p.add_argument("--lookahead-beam", type=int, default=64,
                   help="beam-width cap of the lookahead fill strategy; "
                        "it runs narrower by default and widens up to "
                        "this at decision points")
    p.add_argument("--schedule", default="auto",
                   choices=("auto",) + schedule_family_names(),
                   help="pipeline schedule family; auto picks onef1b for "
                        "single-backbone models and bidirectional for "
                        "cascaded ones")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench",
                       help="measure headline performance numbers")
    p.add_argument("--best-of", type=int, default=3,
                   help="runs per timing point; floors are reported")
    p.add_argument("--skip-sweep", action="store_true",
                   help="only time table builds (skip the planner sweep)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as stable-schema JSON "
                        "(repro-bench/1) for CI artifacts")
    p.set_defaults(func=cmd_bench)

    sub.add_parser("table1", help="print Table 1").set_defaults(func=cmd_table1)
    sub.add_parser("table2", help="print Table 2").set_defaults(func=cmd_table2)

    p = sub.add_parser("snapshot",
                       help="warm the planner caches and persist them")
    p.add_argument("--model", default="sd", choices=sorted(MODELS))
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--batches", type=int, nargs="+",
                   default=[64, 128, 256, 384])
    p.add_argument("--heterogeneous", action="store_true")
    p.add_argument("--fill-strategy", default="greedy",
                   choices=fill_strategy_names())
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "analyze",
        help="run the static invariant rules over the package",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--rule", action="append", dest="rules", metavar="ID",
                   help="run only this rule (repeatable); unknown ids "
                        "are rejected with the sorted catalog")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings (stable schema: "
                        "rules, count, findings[path/line/rule/message])")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
