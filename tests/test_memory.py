"""Memory estimator tests."""

import pytest

from repro.core.plan import PartitionPlan, StageAssignment
from repro.errors import ConfigurationError
from repro.memory import (
    component_state_bytes,
    data_parallel_memory_report,
    frozen_state_bytes,
    pipeline_memory_report,
    stage_activation_bytes,
    stage_state_bytes,
)
from repro.models import ComponentSpec, LayerSpec, ModelSpec


def _model(backbone_layers=4, act_bytes=1e6, param_bytes=2e6):
    bb_layers = [
        LayerSpec(
            name=f"b{i}", flops_per_sample=1e9, param_bytes=param_bytes,
            output_bytes_per_sample=1e4, activation_bytes_per_sample=act_bytes,
            trainable=True,
        )
        for i in range(backbone_layers)
    ]
    enc_layers = [
        LayerSpec(
            name="e0", flops_per_sample=1e9, param_bytes=4e6,
            output_bytes_per_sample=1e4, trainable=False,
        )
    ]
    return ModelSpec(
        "m",
        [
            ComponentSpec("enc", enc_layers, trainable=False),
            ComponentSpec("bb", bb_layers, trainable=True, depends_on=("enc",)),
        ],
        backbone_names=("bb",),
    )


def test_state_bytes_accounting():
    m = _model()
    bb = m.components["bb"]
    # 16 bytes/param for trainable: params = 4 layers * 2e6/2 = 4e6 params.
    assert component_state_bytes(bb) == 4e6 * 16
    enc = m.components["enc"]
    # Frozen: fp16 only -> same as param_bytes.
    assert component_state_bytes(enc) == 4e6
    assert frozen_state_bytes(m) == 4e6


def test_stage_level_accounting():
    m = _model()
    st = StageAssignment("bb", 0, 2)
    assert stage_state_bytes(m, st) == 2e6 * 16
    assert stage_activation_bytes(m, st, local_batch=8) == 2 * 1e6 * 8


def test_pipeline_memory_1f1b_window():
    m = _model()
    plan = PartitionPlan(
        down=(StageAssignment("bb", 0, 2), StageAssignment("bb", 2, 4)),
        num_stages=2, num_micro_batches=4, group_size=2, batch_per_group=32,
    )
    rep = pipeline_memory_report(m, plan, capacity_bytes=1e12)
    # Stage 0 holds min(S, M)=2 in-flight micro-batches of 8 samples.
    expected_stage0 = (
        frozen_state_bytes(m)
        + 2e6 * 16
        + 2 * (2 * 1e6 * 8)
    )
    assert rep.peak_bytes == pytest.approx(expected_stage0)
    assert rep.fits
    # zerobubble has no forwards_first either: the 1F1B window.
    rep = pipeline_memory_report(
        m, plan, capacity_bytes=1e12, schedule="zerobubble"
    )
    assert rep.peak_bytes == pytest.approx(expected_stage0)
    # bidirectional cannot place a single-chain plan.
    with pytest.raises(ConfigurationError, match="up-pipeline"):
        pipeline_memory_report(
            m, plan, capacity_bytes=1e12, schedule="bidirectional"
        )


def test_gpipe_memory_exceeds_1f1b():
    m = _model()
    plan = PartitionPlan(
        down=(StageAssignment("bb", 0, 2), StageAssignment("bb", 2, 4)),
        num_stages=2, num_micro_batches=4, group_size=2, batch_per_group=32,
    )
    f1b = pipeline_memory_report(m, plan, capacity_bytes=1e12)
    gp = pipeline_memory_report(m, plan, capacity_bytes=1e12, schedule="gpipe")
    assert gp.peak_bytes > f1b.peak_bytes
    # forwards_first: all M = 4 micro-batches stay alive on stage 0.
    assert gp.peak_bytes == pytest.approx(
        frozen_state_bytes(m) + 2e6 * 16 + 4 * (2 * 1e6 * 8)
    )
    # Names resolve through the family registry ("1f1b" is no family).
    for bad in ("pipedream", "1f1b"):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            pipeline_memory_report(m, plan, capacity_bytes=1e12, schedule=bad)


def test_interleaved_memory_hosts_round_robin_chunks():
    """Four one-layer chunks on two devices (v = 2): device 0 hosts
    chunks 0 and 2, keeping min(4 - c, M) micro-batches of each."""
    m = _model()
    plan = PartitionPlan(
        down=tuple(StageAssignment("bb", i, i + 1) for i in range(4)),
        num_stages=4, num_micro_batches=4, group_size=2, batch_per_group=32,
    )
    rep = pipeline_memory_report(
        m, plan, capacity_bytes=1e12, schedule="interleaved"
    )
    act = 1e6 * 8  # one micro-batch of 8 samples on a 1-layer chunk
    assert rep.peak_bytes == pytest.approx(
        frozen_state_bytes(m) + (4 + 2) * act + 2 * 1e6 * 16
    )
    odd = PartitionPlan(
        down=plan.down[:3], num_stages=3, num_micro_batches=4, group_size=2,
        batch_per_group=32,
    )
    with pytest.raises(ConfigurationError, match="whole number of chunks"):
        pipeline_memory_report(
            m, odd, capacity_bytes=1e12, schedule="interleaved"
        )


def test_bidirectional_memory_colocates_up_stage():
    """Device k hosts down stage k and up stage S-1-k, each with its
    own 1F1B window."""
    m = _model()
    down = (StageAssignment("bb", 0, 1), StageAssignment("bb", 1, 4))
    up = (StageAssignment("bb", 0, 3), StageAssignment("bb", 3, 4))
    plan = PartitionPlan(
        down=down, up=up, num_stages=2, num_micro_batches=4, group_size=2,
        batch_per_group=32,
    )
    rep = pipeline_memory_report(
        m, plan, capacity_bytes=1e12, schedule="bidirectional"
    )
    act = 1e6 * 8  # one micro-batch of 8 samples on one layer
    state = 1e6 * 16  # one layer's trainable state
    # Device 0: down stage 0 (1 layer, window 2) + up stage 1 (1 layer,
    # window 1); device 1: down stage 1 (3 layers, window 1) + up stage
    # 0 (3 layers, window 2) -- the peak.
    assert rep.peak_bytes == pytest.approx(
        frozen_state_bytes(m) + 3 * (act + 2 * act) + 6 * state
    )


def test_data_parallel_memory_and_oom():
    m = _model(act_bytes=1e9)
    small = data_parallel_memory_report(m, 1, capacity_bytes=80e9)
    assert small.fits
    big = data_parallel_memory_report(m, 64, capacity_bytes=80e9)
    assert not big.fits
    assert big.breakdown["activations"] == pytest.approx(4 * 1e9 * 64)


def test_zero3_shards_states():
    m = _model()
    ddp = data_parallel_memory_report(m, 8, capacity_bytes=80e9, world_size=8)
    z3 = data_parallel_memory_report(
        m, 8, capacity_bytes=80e9, zero3=True, world_size=8
    )
    assert z3.peak_bytes < ddp.peak_bytes
    assert z3.breakdown["trainable_states"] < ddp.breakdown["trainable_states"]


def test_validation():
    m = _model()
    with pytest.raises(ConfigurationError):
        data_parallel_memory_report(m, 0, capacity_bytes=1)
    with pytest.raises(ConfigurationError):
        data_parallel_memory_report(m, 8, capacity_bytes=1, world_size=0)
