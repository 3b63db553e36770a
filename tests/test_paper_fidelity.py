"""Paper-fidelity pins: constants and behaviours the paper specifies
explicitly.  These tests guard against silent drift from the paper."""

import pytest

from repro.core import VALID_LOCAL_BATCHES, DEFAULT_MIN_BUBBLE_MS
from repro.core.partition_cdm import CDMPartitionContext
from repro.memory import (
    FROZEN_STATE_BYTES_PER_PARAM,
    TRAINABLE_STATE_BYTES_PER_PARAM,
)
from repro.models.zoo import (
    cdm_imagenet,
    cdm_lsun,
    controlnet_v1_0,
    stable_diffusion_v2_1,
)
from repro.schedule import BIDIRECTIONAL_COMM_SCALE, get_family


def test_partial_batch_menu_is_papers():
    """§5: 'We empirically use 4, 8, 12, 16, 24, 32, 48, 64 and 96 as
    the local batch size candidates.'"""
    assert VALID_LOCAL_BATCHES == (4, 8, 12, 16, 24, 32, 48, 64, 96)


def test_min_bubble_threshold_is_10ms():
    """§5 footnote 3: only bubbles longer than 10 ms are filled."""
    assert DEFAULT_MIN_BUBBLE_MS == 10.0


def test_bidirectional_comm_enlargement_is_2x():
    """§4.2: 'we reasonably enlarge the communication time ... by a
    factor of 2'."""
    assert BIDIRECTIONAL_COMM_SCALE == 2.0
    # One constant: the CDM DP prices the links the family simulates.
    assert CDMPartitionContext.comm_scale is BIDIRECTIONAL_COMM_SCALE
    assert get_family("bidirectional").comm_scale is BIDIRECTIONAL_COMM_SCALE


def test_mixed_precision_adam_state_bytes():
    """fp16 param + fp16 grad + fp32 master + 2x fp32 Adam moments."""
    assert TRAINABLE_STATE_BYTES_PER_PARAM == 16.0
    assert FROZEN_STATE_BYTES_PER_PARAM == 2.0


def test_table5_training_configurations():
    """Table 5: SD and ControlNet train with self-conditioning enabled,
    the CDMs without."""
    assert stable_diffusion_v2_1().self_conditioning
    assert controlnet_v1_0().self_conditioning
    assert not cdm_lsun().self_conditioning
    assert not cdm_imagenet().self_conditioning
    # Chen et al. 2022: activation probability 0.5.
    assert stable_diffusion_v2_1().self_conditioning_prob == 0.5


def test_cdm_imagenet_trains_backbones_2_and_3():
    """§6 Models: 'For CDM-ImageNet, we only train its second and third
    backbones'."""
    assert cdm_imagenet().backbone_names == ("sr_128", "sr_256")


def test_testbed_matches_paper():
    """§6 Test-bed: 8x p4de.24xlarge, A100-80GB, EFA 400 Gbps,
    NVSwitch 600 GBps."""
    from repro.cluster import EFA_400G, NVSWITCH, p4de_cluster

    cluster = p4de_cluster(8)
    assert cluster.world_size == 64
    assert cluster.devices_per_machine == 8
    assert cluster.device_spec.memory_bytes == 80e9
    assert NVSWITCH.bandwidth == pytest.approx(600e6)       # bytes/ms
    assert EFA_400G.bandwidth == pytest.approx(50e6)        # bytes/ms


def test_gpipe_paper_configuration():
    """§6 Baselines: GPipe evaluated with 2 stages and 4 micro-batches."""
    from repro.baselines import GPipeConfig

    cfg = GPipeConfig()
    assert cfg.num_stages == 2
    assert cfg.num_micro_batches == 4
