"""Planner benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sd16-lookahead-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (from a separate, traced run).  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the same numbers for a reader.
Outputs go to ``perfbench/out/``: the chosen plan per operation (diff two
runs for determinism), every timing sample, and, when traced, the spans
as a Chrome trace.
The planner is imported from this checkout's ``src/``; without it the
run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src/`` first on the path and check that the
    planner really comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the planner from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: repro was imported from {origin}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {names}")
    import_program()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(result.metrics)
    if mismatch:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = json.dumps(result.record, sort_keys=True, indent=0)
    (out / f"{stem}.plans.json").write_text(record)
    if result.samples:
        samples = {
            name: {str(group): values for group, values in groups.items()}
            for name, groups in result.samples.items()
        }
        (out / f"{stem}.samples.json").write_text(json.dumps(samples))
    if result.tracer is not None:
        result.tracer.write_chrome_trace(out / f"{stem}.trace.json")

    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    digest = hashlib.sha256(record.encode()).hexdigest()[:16]
    print(f"plans: {len(result.record)} distinct operations, digest {digest}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
