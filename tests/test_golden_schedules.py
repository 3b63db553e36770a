"""Golden-baseline gate for the schedule-family refactor.

The ``ScheduleFamily`` registry re-routes every schedule build
(``onef1b``, ``bidirectional``, ``gpipe``) through a common code path.
This test pins the refactor to the exact pre-refactor numbers: the
fig. 13a / 13c / 15 sweep outputs were captured at the commit *before*
the registry landed (``python tests/test_golden_schedules.py
--capture``) and every run since must reproduce them bit-for-bit
(floats compared via ``float.hex``).

If this test fails after an intentional behaviour change to the
planner or cost model, re-capture the goldens in the same commit and
say so in the commit message; it must never be re-captured to paper
over an unintended diff from a schedule-construction refactor.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweeps.json"

#: trimmed scale grid: 8 and 16 GPUs cover both the single-machine and
#: the multi-node planner paths while keeping the gate fast.
MACHINE_COUNTS = (1, 2)
FIG15_BATCHES = (256, 384)


def _hex(x: float) -> str:
    return float(x).hex()


def _cells_to_json(cells) -> list[list]:
    return [
        [c.system, c.gpus, c.batch, _hex(c.throughput), c.oom, c.label]
        for c in cells
    ]


def _ablation_to_json(result) -> dict:
    return {
        name: {str(b): _hex(t) for b, t in by_batch.items()}
        for name, by_batch in result.items()
    }


def compute_golden() -> dict:
    """Re-run the fig. 13a/13c/15 computations the goldens were cut from."""
    from repro.cluster import single_node
    from repro.harness import (
        CDM_LSUN_BATCHES,
        SD_BATCHES,
        ThroughputSweep,
        ablation_throughputs,
    )
    from repro.models.zoo import (
        cdm_lsun,
        controlnet_v1_0,
        stable_diffusion_v2_1,
    )
    from repro.profiling import Profiler

    out: dict = {}
    for key, sc in (("fig13a", False), ("fig13a_sc", True)):
        sweep = ThroughputSweep(
            lambda: stable_diffusion_v2_1(self_conditioning=sc),
            machine_counts=MACHINE_COUNTS,
            batches=SD_BATCHES,
        )
        out[key] = _cells_to_json(sweep.run())
    sweep = ThroughputSweep(
        cdm_lsun, machine_counts=MACHINE_COUNTS, batches=CDM_LSUN_BATCHES
    )
    out["fig13c"] = _cells_to_json(sweep.run())

    cluster8 = single_node(8)
    for key, factory in (
        ("fig15_sd", lambda: stable_diffusion_v2_1(self_conditioning=False)),
        ("fig15_controlnet", lambda: controlnet_v1_0(self_conditioning=False)),
    ):
        model = factory()
        profile = Profiler(cluster8).profile(model)
        out[key] = _ablation_to_json(
            ablation_throughputs(model, cluster8, profile, batches=FIG15_BATCHES)
        )
    return out


def test_sweeps_match_pre_refactor_goldens():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_golden()
    assert current.keys() == golden.keys()
    for key in golden:
        assert current[key] == golden[key], (
            f"{key}: registry-built schedules diverged from the "
            "pre-refactor builders (bit-identity gate)"
        )


if __name__ == "__main__":
    import sys

    if "--capture" not in sys.argv:
        sys.exit("usage: python tests/test_golden_schedules.py --capture")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
