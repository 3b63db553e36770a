"""Calibration helpers for the model zoo.

The zoo describes each paper model as a list of layers whose *relative*
costs follow the architecture, then rescales absolute FLOPs so that the
total execution time at a reference batch size on the reference device
hits a calibration target taken from the paper.

Calibration anchors (all at batch size 64 on one A100-80GB):

* Stable Diffusion v2.1 — Table 1 row 1: non-trainable forward time is
  38/41/43/44 % of the trainable forward+backward time at B=8/16/32/64.
  Fitting the two endpoints with the saturating utilisation curve of
  :class:`repro.cluster.DeviceSpec` gives a trainable compute budget of
  ~2400 ms (+ ~75 ms fixed overhead) and a non-trainable budget of
  ~1089 ms at B=64.  The same fit then reproduces the paper's Fig. 4
  bubble-ratio grid to within ~1 %.
* ControlNet v1.0 — Table 1 row 2 (76/81/86/89 %) gives a trainable
  branch of ~1291 ms compute (+ ~45 ms overhead) and a non-trainable
  part of ~1189 ms at B=64.
* Fig. 5 fixes the per-layer *distribution*: ~22 short text-encoder
  layers (0.1-10 ms), moderate VAE layers (< 30 ms) and a few extra-long
  layers (> 400 ms) at B=64.
"""

from __future__ import annotations

from typing import Sequence

from ...cluster.device import DeviceSpec, a100_80gb
from ...errors import ConfigurationError
from ..layers import LayerSpec

#: Reference batch size at which all zoo calibration targets are stated.
REFERENCE_BATCH = 64


def layer_forward_time_ms(
    layer: LayerSpec, batch_size: float, device: DeviceSpec
) -> float:
    """Forward time of a layer on a device (the profiling cost model).

    ``t = kernel_overhead + fixed_overhead + flops / effective_flops``.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch size must be positive, got {batch_size}")
    compute = layer.forward_flops(batch_size) / device.effective_flops_per_ms(batch_size)
    return device.kernel_overhead_ms + layer.fixed_overhead_ms + compute


def layer_backward_time_ms(
    layer: LayerSpec, batch_size: float, device: DeviceSpec
) -> float:
    """Backward time of a layer on a device.

    Backward kernels launch roughly twice as many kernels as forward, so
    the fixed overhead doubles; compute follows the layer's backward
    FLOPs multiplier.  Frozen layers return 0.
    """
    if not layer.trainable:
        return 0.0
    if batch_size <= 0:
        raise ConfigurationError(f"batch size must be positive, got {batch_size}")
    compute = layer.backward_flops(batch_size) / device.effective_flops_per_ms(batch_size)
    return device.kernel_overhead_ms + 2.0 * layer.fixed_overhead_ms + compute


def layer_backward_weight_time_ms(
    layer: LayerSpec, batch_size: float, device: DeviceSpec
) -> float:
    """Weight-gradient (W) component of a layer's backward time.

    The backward pass runs two kernel families: grad-input (``dy @ W^T``,
    on the inter-stage critical path) and grad-weight (``x^T @ dy``, only
    needed before the optimizer step).  Of the layer's
    ``backward_flops_multiplier`` x forward FLOPs, one forward-equivalent
    computes the parameter gradients, so W's compute share is
    ``1 / multiplier``; W also carries one of backward's two fixed
    per-layer overheads (its own kernel set) while the launch tail
    (``kernel_overhead_ms``) stays with grad-input.  Frozen and
    parameter-less layers do no W work.

    Always ``<= layer_backward_time_ms`` so B = backward - W is
    non-negative.
    """
    if not layer.trainable or layer.param_bytes <= 0:
        return 0.0
    if batch_size <= 0:
        raise ConfigurationError(f"batch size must be positive, got {batch_size}")
    mult = layer.backward_flops_multiplier
    w_share = min(1.0, 1.0 / mult) if mult > 0 else 0.0
    compute = layer.backward_flops(batch_size) / device.effective_flops_per_ms(batch_size)
    w = layer.fixed_overhead_ms + w_share * compute
    return min(w, layer_backward_time_ms(layer, batch_size, device))


def flops_for_forward_time(
    target_ms: float,
    batch_size: float,
    device: DeviceSpec,
    fixed_overhead_ms: float = 0.0,
) -> float:
    """Invert the cost model: per-sample FLOPs giving ``target_ms`` forward.

    Raises if the target is not achievable (smaller than the overheads).
    """
    compute_ms = target_ms - device.kernel_overhead_ms - fixed_overhead_ms
    if compute_ms <= 0:
        raise ConfigurationError(
            f"target {target_ms} ms not achievable: overheads alone are "
            f"{device.kernel_overhead_ms + fixed_overhead_ms} ms"
        )
    total_flops = compute_ms * device.effective_flops_per_ms(batch_size)
    return total_flops / batch_size


def layers_from_time_weights(
    prefix: str,
    weights: Sequence[float],
    total_forward_ms: float,
    *,
    trainable: bool,
    param_bytes_total: float,
    output_bytes_per_sample: float,
    activation_bytes_per_sample: float | None = None,
    device: DeviceSpec | None = None,
    fixed_overhead_ms: float = 0.0,
    names: Sequence[str] | None = None,
    batch_size: float = REFERENCE_BATCH,
) -> list[LayerSpec]:
    """Build a layer chain whose forward times at the reference batch are
    ``total_forward_ms`` distributed proportionally to ``weights``.

    Parameters beyond the calibration targets (``param_bytes_total``,
    ``output_bytes_per_sample``) are distributed proportionally to the
    weights / uniformly, respectively, which is all the downstream
    algorithms need.
    """
    device = device or a100_80gb()
    weights = list(weights)
    if not weights or any(w <= 0 for w in weights):
        raise ConfigurationError("weights must be positive and non-empty")
    if names is not None and len(names) != len(weights):
        raise ConfigurationError("names/weights length mismatch")
    wsum = float(sum(weights))
    layers: list[LayerSpec] = []
    for i, w in enumerate(weights):
        share = w / wsum
        target = total_forward_ms * share
        flops = flops_for_forward_time(
            target, batch_size, device, fixed_overhead_ms=fixed_overhead_ms
        )
        name = names[i] if names is not None else f"{prefix}{i}"
        layers.append(
            LayerSpec(
                name=name,
                flops_per_sample=flops,
                param_bytes=param_bytes_total * share,
                output_bytes_per_sample=output_bytes_per_sample,
                activation_bytes_per_sample=activation_bytes_per_sample,
                trainable=trainable,
                fixed_overhead_ms=fixed_overhead_ms,
            )
        )
    return layers


def total_forward_ms(
    layers: Sequence[LayerSpec], batch_size: float, device: DeviceSpec | None = None
) -> float:
    """Total forward time of a layer chain on a device."""
    device = device or a100_80gb()
    return sum(layer_forward_time_ms(l, batch_size, device) for l in layers)


def total_train_ms(
    layers: Sequence[LayerSpec], batch_size: float, device: DeviceSpec | None = None
) -> float:
    """Total forward+backward time of a layer chain on a device."""
    device = device or a100_80gb()
    return sum(
        layer_forward_time_ms(l, batch_size, device)
        + layer_backward_time_ms(l, batch_size, device)
        for l in layers
    )
