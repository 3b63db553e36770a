"""Profile records and the profile database.

The front-end's algorithms (partitioning, bubble filling) are driven
entirely by a :class:`ProfileDB`: per-layer forward/backward times on a
grid of batch sizes plus static sizes (parameters, gradients, outputs).
Between grid points, times are piecewise-linear in the batch size —
layer execution time is near-affine in batch size on real accelerators
(paper Fig. 6), so linear interpolation is both accurate and monotone.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..errors import ProfileError

if TYPE_CHECKING:
    from ..cluster.collectives import CommCosts


@dataclass(frozen=True)
class LayerProfile:
    """Measured profile of one layer.

    ``batches``, ``fwd_ms`` and ``bwd_ms`` are parallel arrays sorted by
    batch size.  Sizes are per-sample for activations/outputs and total
    for parameters/gradients.

    ``bwd_w_ms`` is the measured weight-gradient (W) component of the
    backward time, another parallel array; split-backward schedule
    families (``zerobubble``) price B = grad-input and W = grad-weight
    separately.  Profiles that predate the split leave it ``None`` and
    fall back to an even B/W split of the measured backward — the two
    halves of the backward are one GEMM each (``dy @ W^T`` and
    ``x^T @ dy``) of equal FLOPs, so half is the principled default when
    no per-kernel measurement exists.
    """

    component: str
    layer_index: int
    layer_name: str
    batches: tuple[float, ...]
    fwd_ms: tuple[float, ...]
    bwd_ms: tuple[float, ...]
    param_bytes: float
    grad_bytes: float
    output_bytes_per_sample: float
    activation_bytes_per_sample: float
    trainable: bool
    bwd_w_ms: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # Per-batch interpolation caches.  The planner's sweeps evaluate
        # the same (layer, batch) points thousands of times; caching the
        # exact interpolated value keeps results bit-identical while
        # removing the repeated bisect + arithmetic.  The dataclass is
        # frozen, hence object.__setattr__; the caches are not fields so
        # equality/hash semantics are unchanged.
        object.__setattr__(self, "_fwd_cache", {})
        object.__setattr__(self, "_bwd_cache", {})
        object.__setattr__(self, "_bww_cache", {})
        if not self.batches:
            raise ProfileError(
                f"{self.component}[{self.layer_index}]: empty batch grid"
            )
        if not (len(self.batches) == len(self.fwd_ms) == len(self.bwd_ms)):
            raise ProfileError(
                f"{self.component}[{self.layer_index}]: ragged profile arrays"
            )
        if list(self.batches) != sorted(set(self.batches)):
            raise ProfileError(
                f"{self.component}[{self.layer_index}]: batch grid must be "
                "strictly increasing"
            )
        if any(t < 0 for t in self.fwd_ms) or any(t < 0 for t in self.bwd_ms):
            raise ProfileError(
                f"{self.component}[{self.layer_index}]: negative times"
            )
        if self.bwd_w_ms is not None:
            if len(self.bwd_w_ms) != len(self.batches):
                raise ProfileError(
                    f"{self.component}[{self.layer_index}]: ragged bwd_w_ms"
                )
            if any(
                not (0.0 <= w <= b) for w, b in zip(self.bwd_w_ms, self.bwd_ms)
            ):
                raise ProfileError(
                    f"{self.component}[{self.layer_index}]: bwd_w_ms must "
                    "satisfy 0 <= W <= backward at every grid point"
                )

    def _interp(self, values: Sequence[float], batch: float) -> float:
        """Piecewise-linear interpolation with linear extrapolation."""
        if batch <= 0:
            raise ProfileError(
                f"{self.component}[{self.layer_index}]: batch must be positive, "
                f"got {batch}"
            )
        xs = self.batches
        if len(xs) == 1:
            # Single point: scale proportionally through the origin.
            return values[0] * batch / xs[0]
        i = bisect.bisect_left(xs, batch)
        if i < len(xs) and xs[i] == batch:
            return values[i]
        # Pick the segment; clamp to the outermost segments for
        # extrapolation on either side.
        j = min(max(i, 1), len(xs) - 1)
        x0, x1 = xs[j - 1], xs[j]
        y0, y1 = values[j - 1], values[j]
        t = y0 + (y1 - y0) * (batch - x0) / (x1 - x0)
        return max(t, 0.0)

    def forward_ms(self, batch: float) -> float:
        """Forward time at a batch size (interpolated, cached)."""
        cache: dict = self._fwd_cache  # type: ignore[attr-defined]
        t = cache.get(batch)
        if t is None:
            t = self._interp(self.fwd_ms, batch)
            cache[batch] = t
        return t

    def backward_ms(self, batch: float) -> float:
        """Backward time at a batch size (0 for frozen layers)."""
        if not self.trainable:
            return 0.0
        cache: dict = self._bwd_cache  # type: ignore[attr-defined]
        t = cache.get(batch)
        if t is None:
            t = self._interp(self.bwd_ms, batch)
            cache[batch] = t
        return t

    def train_ms(self, batch: float) -> float:
        """Forward + backward time at a batch size."""
        return self.forward_ms(batch) + self.backward_ms(batch)

    def backward_weight_ms(self, batch: float) -> float:
        """Weight-gradient (W) component of the backward time.

        Interpolated from ``bwd_w_ms`` when the profiler measured the
        split; otherwise half of the measured backward (documented
        fallback — the two backward GEMMs have equal FLOPs).  Clamped to
        ``[0, backward_ms]`` so B + W always reconstructs the backward
        exactly and B is never negative.
        """
        if not self.trainable:
            return 0.0
        total = self.backward_ms(batch)
        if self.bwd_w_ms is None:
            return 0.5 * total
        cache: dict = self._bww_cache  # type: ignore[attr-defined]
        t = cache.get(batch)
        if t is None:
            t = min(self._interp(self.bwd_w_ms, batch), total)
            cache[batch] = t
        return t

    def reset_caches(self) -> None:
        """Drop the per-batch interpolation memos (generation reset).

        The memos are plain dicts keyed by float batch values — a
        long sweep or elastic session planning unbounded distinct
        batches would grow them forever, and per-hit LRU bookkeeping
        on this hottest of paths costs real time.  A cheap wholesale
        clear (called from :meth:`ProfileDB.reset_caches` /
        ``PlannerCaches.clear``) bounds them instead."""
        self._fwd_cache.clear()  # type: ignore[attr-defined]
        self._bwd_cache.clear()  # type: ignore[attr-defined]
        self._bww_cache.clear()  # type: ignore[attr-defined]

    def output_bytes(self, batch: float) -> float:
        """Output activation size at a batch size."""
        return self.output_bytes_per_sample * batch


class ProfileDB:
    """All layer profiles of a model, with aggregate queries.

    The canonical producer is :class:`repro.profiling.Profiler`; tests
    construct one directly via :meth:`from_layer_times`.  Stage sums,
    per-batch layer prefix sums (:meth:`stage_prefix_sums`), compute
    slabs (:meth:`stage_compute_slab`) and the floor's send and sync
    columns (:meth:`stage_send_column`, :meth:`stage_sync_column`) are
    memoised on the DB;
    :meth:`reset_caches` empties every memo.
    """

    def __init__(self, profiles: Iterable[LayerProfile]):
        self._by_key: dict[tuple[str, int], LayerProfile] = {}
        self._component_sizes: dict[str, int] = {}
        # Memo of stage-aggregate queries, keyed by
        # (query kind, component, lo, hi, batch), of per-batch layer
        # prefix sums, keyed by ("p", component, batch), of compute
        # slabs, keyed by ("c", component, batch, scale), and of the
        # floor's send and sync columns, keyed by ("s", component,
        # batch, p2p, link) and ("y", component, batch, allreduce).  The DB
        # is immutable after construction, so cached sums stay valid;
        # sums are computed exactly as before (same accumulation order),
        # keeping results bit-identical with the uncached path.
        self._stage_cache: dict[tuple, object] = {}
        for p in profiles:
            key = (p.component, p.layer_index)
            if key in self._by_key:
                raise ProfileError(f"duplicate profile for {key}")
            self._by_key[key] = p
            cur = self._component_sizes.get(p.component, 0)
            self._component_sizes[p.component] = max(cur, p.layer_index + 1)
        for comp, n in self._component_sizes.items():
            for i in range(n):
                if (comp, i) not in self._by_key:
                    raise ProfileError(
                        f"component {comp}: missing profile for layer {i}"
                    )

    # -- cache management -----------------------------------------------------

    def reset_caches(self) -> None:
        """Generation/epoch reset of every float-keyed interpolation
        memo: the stage-aggregate cache (with the per-batch prefix sums
        of :meth:`stage_prefix_sums`, the slabs of
        :meth:`stage_compute_slab` and the columns of
        :meth:`stage_send_column` and :meth:`stage_sync_column`) and
        each layer's per-batch
        forward/backward caches.  Values are recomputed identically on
        the next query (the memos are pure), so the only cost is the
        warm-up; call this between epochs of a long-lived sweep to
        bound memory without per-hit LRU bookkeeping."""
        self._stage_cache.clear()
        for profile in self._by_key.values():
            profile.reset_caches()

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of every measured field (structural model
        signature + profile values).

        Two DBs produced from identical measurements — e.g. the
        deterministic :class:`~repro.profiling.Profiler` run twice, or
        in two different processes — share a fingerprint, while any
        change to a layer's timings, sizes, flags or position changes
        it.  Cache snapshots (:meth:`repro.core.PlannerCaches.snapshot`)
        re-key their weak profile references by this value, so a
        snapshot survives re-profiling as long as the measurements
        agree.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        for key in sorted(self._by_key):
            p = self._by_key[key]
            h.update(
                repr(
                    (
                        p.component,
                        p.layer_index,
                        p.layer_name,
                        p.batches,
                        p.fwd_ms,
                        p.bwd_ms,
                        p.param_bytes,
                        p.grad_bytes,
                        p.output_bytes_per_sample,
                        p.activation_bytes_per_sample,
                        p.trainable,
                        p.bwd_w_ms,
                    )
                ).encode()
            )
        digest = h.hexdigest()
        self._fingerprint = digest
        return digest

    # -- lookups -------------------------------------------------------------

    def components(self) -> list[str]:
        """Profiled component names."""
        return sorted(self._component_sizes)

    def num_layers(self, component: str) -> int:
        """Number of profiled layers of a component."""
        self._check_component(component)
        return self._component_sizes[component]

    def layer(self, component: str, index: int) -> LayerProfile:
        """The profile of one layer."""
        key = (component, index)
        if key not in self._by_key:
            self._check_component(component)
            raise ProfileError(
                f"component {component}: no layer {index} "
                f"(has {self._component_sizes[component]})"
            )
        return self._by_key[key]

    def layers(self, component: str) -> list[LayerProfile]:
        """All layer profiles of a component, in order."""
        return [
            self.layer(component, i) for i in range(self.num_layers(component))
        ]

    # -- per-layer convenience -------------------------------------------------

    def fwd_ms(self, component: str, index: int, batch: float) -> float:
        """Forward time of layer ``index`` at a batch size."""
        return self.layer(component, index).forward_ms(batch)

    def bwd_ms(self, component: str, index: int, batch: float) -> float:
        """Backward time of layer ``index`` at a batch size."""
        return self.layer(component, index).backward_ms(batch)

    def bwd_w_ms(self, component: str, index: int, batch: float) -> float:
        """Weight-gradient (W) time of layer ``index`` at a batch size."""
        return self.layer(component, index).backward_weight_ms(batch)

    # -- stage aggregates (contiguous layer ranges) ------------------------------

    def stage_fwd_ms(self, component: str, lo: int, hi: int, batch: float) -> float:
        """Sum of forward times of layers ``[lo, hi)``."""
        key = ("f", component, lo, hi, batch)
        t = self._stage_cache.get(key)
        if t is None:
            self._check_range(component, lo, hi)
            t = sum(self.fwd_ms(component, i, batch) for i in range(lo, hi))
            self._stage_cache[key] = t
        return t

    def stage_bwd_ms(self, component: str, lo: int, hi: int, batch: float) -> float:
        """Sum of backward times of layers ``[lo, hi)``."""
        key = ("b", component, lo, hi, batch)
        t = self._stage_cache.get(key)
        if t is None:
            self._check_range(component, lo, hi)
            t = sum(self.bwd_ms(component, i, batch) for i in range(lo, hi))
            self._stage_cache[key] = t
        return t

    def stage_bwd_w_ms(self, component: str, lo: int, hi: int, batch: float) -> float:
        """Sum of weight-gradient (W) times of layers ``[lo, hi)``."""
        key = ("w", component, lo, hi, batch)
        t = self._stage_cache.get(key)
        if t is None:
            self._check_range(component, lo, hi)
            t = sum(self.bwd_w_ms(component, i, batch) for i in range(lo, hi))
            self._stage_cache[key] = t
        return t

    def stage_prefix_sums(
        self, component: str, batch: float
    ) -> tuple[tuple[float, ...], ...]:
        """Prefix sums over a component's layers at one batch size:
        ``(fwd, bwd, bwd_w, grad_bytes)``, each ``n + 1`` entries from
        ``0.0``, entry ``i`` summing layers ``[0, i)`` in layer order.

        The partition DPs' :class:`~repro.core.partition.StageCosts`
        read their prefix sums here, so every cost evaluator at one
        local batch shares one O(n) pass.  Memoised in the stage cache
        (keyed by component and batch), so :meth:`reset_caches` — and
        with it ``PlannerCaches.clear`` — empties it too.
        """
        key = ("p", component, batch)
        sums = self._stage_cache.get(key)
        if sums is None:
            n = self.num_layers(component)
            fwd = [0.0] * (n + 1)
            bwd = [0.0] * (n + 1)
            bww = [0.0] * (n + 1)
            grad = [0.0] * (n + 1)
            for i in range(n):
                layer = self.layer(component, i)
                fwd[i + 1] = fwd[i] + layer.forward_ms(batch)
                bwd[i + 1] = bwd[i] + layer.backward_ms(batch)
                bww[i + 1] = bww[i] + layer.backward_weight_ms(batch)
                grad[i + 1] = grad[i] + layer.grad_bytes
            sums = (tuple(fwd), tuple(bwd), tuple(bww), tuple(grad))
            self._stage_cache[key] = sums
        return sums

    def stage_compute_slab(
        self, component: str, batch: float, scale: float, sc: bool = False
    ) -> np.ndarray:
        """Dense read-only ``(n + 1, n + 1)`` slab whose ``[lo, hi]``
        entry is the fwd + bwd time of layers ``[lo, hi)`` at one batch
        size, divided by ``scale`` (a window's speed factor), then with
        ``sc`` plus the forward time divided by ``scale`` again (the
        self-conditioning wave's extra forward): the compute term of
        the pre-partition makespan floors, built from
        :meth:`stage_prefix_sums`.  Memoised in the stage cache like
        them, so many configurations sharing a (component, local batch,
        window factor) build one slab, and :meth:`reset_caches` empties
        the memo."""
        key = ("c", component, batch, scale, sc)
        slab = self._stage_cache.get(key)
        if slab is None:
            fwd, bwd, _, _ = self.stage_prefix_sums(component, batch)
            F = np.asarray(fwd)
            B = np.asarray(bwd)
            f = F[None, :] - F[:, None]
            slab = (f + (B[None, :] - B[:, None])) / scale
            if sc:
                slab = slab + f / scale
            slab.flags.writeable = False
            self._stage_cache[key] = slab
        return slab

    def stage_send_column(
        self, component: str, batch: float, p2p: CommCosts, link: float
    ) -> np.ndarray:
        """Read-only ``(n + 1,)`` send column of the CDM makespan floor:
        entry ``hi`` is the ``link``-scaled transfer of layer ``hi - 1``'s
        output at one batch size over ``p2p`` (0 at ``hi = 0``) — the
        IEEE operations of ``StageCosts.send_ms``, times ``link``.
        Memoised in the stage cache by everything it reads, like
        :meth:`stage_compute_slab`."""
        key = ("s", component, batch, p2p, link)
        col = self._stage_cache.get(key)
        if col is None:
            layers = self.layers(component)
            per_sample = [layer.output_bytes_per_sample for layer in layers]
            nbytes = np.asarray(per_sample) * batch
            col = np.zeros(len(layers) + 1)
            col[1:] = link * (nbytes / p2p.bandwidth + p2p.latency)
            col.flags.writeable = False
            self._stage_cache[key] = col
        return col

    def stage_sync_column(
        self, component: str, batch: float, allreduce: CommCosts
    ) -> np.ndarray:
        """Read-only ``(n + 1,)`` sync column of the CDM makespan floor:
        entry ``hi`` is the ``allreduce`` time of layers ``[0, hi)``'s
        gradients, read from :meth:`stage_prefix_sums` at ``batch`` —
        the IEEE operations of ``StageCosts.sync_ms``.  Memoised in the
        stage cache by everything it reads."""
        key = ("y", component, batch, allreduce)
        col = self._stage_cache.get(key)
        if col is None:
            grad = np.asarray(self.stage_prefix_sums(component, batch)[3])
            col = np.where(
                grad == 0, 0.0, grad / allreduce.bandwidth + allreduce.latency
            )
            col.flags.writeable = False
            self._stage_cache[key] = col
        return col

    def stage_bwd_b_ms(self, component: str, lo: int, hi: int, batch: float) -> float:
        """Grad-input (B) time of layers ``[lo, hi)``.

        Defined as ``stage_bwd_ms - stage_bwd_w_ms`` (not a separate
        sum) so B + W reconstructs the stage backward exactly in
        floating point; clamped at zero against ulp-level summation
        order effects.
        """
        return max(
            0.0,
            self.stage_bwd_ms(component, lo, hi, batch)
            - self.stage_bwd_w_ms(component, lo, hi, batch),
        )

    def stage_train_ms(self, component: str, lo: int, hi: int, batch: float) -> float:
        """Sum of forward+backward times of layers ``[lo, hi)``."""
        return self.stage_fwd_ms(component, lo, hi, batch) + self.stage_bwd_ms(
            component, lo, hi, batch
        )

    def stage_grad_bytes(self, component: str, lo: int, hi: int) -> float:
        """Gradient bytes of layers ``[lo, hi)`` (the ``G`` of Eqn. 4)."""
        key = ("g", component, lo, hi)
        t = self._stage_cache.get(key)
        if t is None:
            self._check_range(component, lo, hi)
            t = sum(self.layer(component, i).grad_bytes for i in range(lo, hi))
            self._stage_cache[key] = t
        return t

    def boundary_bytes(self, component: str, index: int, batch: float) -> float:
        """Activation bytes crossing the cut after layer ``index``
        (the ``C_{l,l+1}`` of Eqn. 3)."""
        return self.layer(component, index).output_bytes(batch)

    def component_fwd_ms(self, component: str, batch: float) -> float:
        """Total forward time of a component."""
        return self.stage_fwd_ms(component, 0, self.num_layers(component), batch)

    def component_train_ms(self, component: str, batch: float) -> float:
        """Total forward+backward time of a component."""
        n = self.num_layers(component)
        return self.stage_train_ms(component, 0, n, batch)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_layer_times(
        cls,
        times: Mapping[str, Sequence[tuple[float, float]]],
        *,
        batches: Sequence[float] = (1.0,),
        param_bytes: float = 1e6,
        output_bytes_per_sample: float = 1e4,
        trainable: Mapping[str, bool] | None = None,
        scale_with_batch: bool = True,
    ) -> "ProfileDB":
        """Build a synthetic DB from explicit per-layer (fwd, bwd) times.

        ``times[name]`` is a list of (fwd_ms, bwd_ms) pairs, one per
        layer, interpreted as the times at batch size ``batches[-1]``.
        When ``scale_with_batch`` is true, other grid points scale
        linearly with batch size; otherwise times are batch-independent.
        """
        trainable = trainable or {}
        profiles = []
        ref = batches[-1]
        for comp, layer_times in times.items():
            comp_trainable = trainable.get(
                comp, any(b > 0 for _, b in layer_times)
            )
            for idx, (f, b) in enumerate(layer_times):
                if scale_with_batch:
                    fwd = tuple(f * bb / ref for bb in batches)
                    bwd = tuple(b * bb / ref for bb in batches)
                else:
                    fwd = tuple(f for _ in batches)
                    bwd = tuple(b for _ in batches)
                profiles.append(
                    LayerProfile(
                        component=comp,
                        layer_index=idx,
                        layer_name=f"{comp}_l{idx}",
                        batches=tuple(batches),
                        fwd_ms=fwd,
                        bwd_ms=bwd,
                        param_bytes=param_bytes,
                        grad_bytes=param_bytes if comp_trainable else 0.0,
                        output_bytes_per_sample=output_bytes_per_sample,
                        activation_bytes_per_sample=output_bytes_per_sample,
                        trainable=comp_trainable,
                    )
                )
        return cls(profiles)

    # -- validation ---------------------------------------------------------------

    def _check_component(self, component: str) -> None:
        if component not in self._component_sizes:
            raise ProfileError(
                f"unknown component {component!r}; "
                f"profiled: {self.components()}"
            )

    def _check_range(self, component: str, lo: int, hi: int) -> None:
        n = self.num_layers(component)
        if not (0 <= lo <= hi <= n):
            raise ProfileError(
                f"component {component}: invalid layer range [{lo}, {hi}) "
                f"of {n} layers"
            )
