"""Chimera baseline tests."""

import pytest

from repro.baselines import ChimeraBaseline, ChimeraConfig, GPipeBaseline
from repro.cluster import single_node
from repro.core.plan import PartitionPlan
from repro.errors import ConfigurationError
from repro.memory.estimator import pipeline_memory_report
from repro.models.zoo import dit_xl, stable_diffusion_v2_1
from repro.profiling import Profiler


def test_chimera_runs(cluster8, uniform, uniform_profile):
    ch = ChimeraBaseline(uniform, cluster8, uniform_profile)
    res = ch.run(64)
    assert not res.oom
    assert res.throughput > 0
    assert res.name == "Chimera"
    assert "S=2" in res.notes[0]


def test_chimera_bubble_ratio_below_unidirectional(
    cluster8, uniform, uniform_profile
):
    """Bidirectional pipelining reduces bubbles vs GPipe's schedule."""
    ch = ChimeraBaseline(
        uniform, cluster8, uniform_profile, ChimeraConfig(2, 2)
    )
    gp = GPipeBaseline(uniform, cluster8, uniform_profile)
    assert ch.bubble_ratio(64) < gp.bubble_ratio(64)


def test_chimera_memory_doubles_stage_states(cluster8, uniform, uniform_profile):
    """Each device hosts stages of both directions."""
    ch = ChimeraBaseline(uniform, cluster8, uniform_profile)
    res = ch.run(64)
    gp = GPipeBaseline(uniform, cluster8, uniform_profile).run(64)
    assert res.memory.peak_bytes > gp.memory.peak_bytes


def test_chimera_rejects_cdm(cluster8, cascaded, cascaded_profile):
    with pytest.raises(ConfigurationError):
        ChimeraBaseline(cascaded, cluster8, cascaded_profile)


def test_chimera_batch_validation(cluster8, uniform, uniform_profile):
    ch = ChimeraBaseline(uniform, cluster8, uniform_profile)
    with pytest.raises(ConfigurationError):
        ch.run(63)


@pytest.mark.parametrize(
    "gpus, config, batch, message",
    [
        (6, ChimeraConfig(4, 2), 64, "world 6 not divisible by 4"),
        (8, ChimeraConfig(2, 2), 36, "incompatible with dp=4, 2M=4"),
    ],
)
def test_chimera_bubble_ratio_checks_like_run(gpus, config, batch, message):
    """``bubble_ratio`` rejects what ``run`` rejects: a stage count that
    does not divide the world (it used to floor the data-parallel
    degree), and a batch whose micro-batches are not whole samples (36
    on 8 GPUs used to give 2.25-sample micro-batches)."""
    cluster = single_node(gpus)
    model = stable_diffusion_v2_1()
    ch = ChimeraBaseline(model, cluster, Profiler(cluster).profile(model), config)
    for measure in (ch.run, ch.bubble_ratio):
        with pytest.raises(ConfigurationError, match=message):
            measure(batch)


def test_chimera_prices_memory_at_the_micro_batch_it_simulates():
    """The partition DP, the memory report and the simulation read one
    bidirectional plan at the per-direction batch.  DiT-XL on 8 GPUs at
    b = 384 (S = 2, 2 micro-batches per direction, dp = 4) simulates
    24-sample micro-batches and fits in about 52.5 GB; priced at the
    whole group batch's 48-sample micro-batches it needed 84.9 GB and
    was reported out of memory."""
    cluster = single_node(8)
    model = dit_xl()
    ch = ChimeraBaseline(model, cluster, Profiler(cluster).profile(model))
    res = ch.run(384)
    assert not res.oom
    assert res.throughput > 0
    assert res.local_batch == 24
    assert res.memory.peak_bytes == pytest.approx(52.5e9, rel=2e-3)
    down = ch._partition(384).down
    per_direction = PartitionPlan(
        down=down, up=down, num_stages=2, num_micro_batches=2,
        group_size=2, batch_per_group=48,
    )
    assert res.memory == pipeline_memory_report(
        model, per_direction,
        capacity_bytes=cluster.device_spec.memory_bytes,
        schedule="bidirectional",
    )
