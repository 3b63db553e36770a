"""Pipeline-bubble filling primitives (§5, Algorithms 1 and 2).

This module holds the mechanics the fill *strategies* are built from:
component progress tracking (:class:`ComponentState`), the FFC
candidate enumeration (Algorithm 2), the per-bubble greedy choice
(Algorithm 1, :func:`fill_one_bubble`) and the
:class:`BubbleFiller` driver.  Which policy drives the bubbles —
the paper's chronological greedy, the cross-bubble lookahead, or no
filling at all — is chosen by name from the strategy registry in
:mod:`repro.core.fill_strategies`.

Layers inside a bubble run data-parallel over the bubble's ``d`` idle
devices at local batch ``B/d``.  A partially-processed layer becomes the
head of its component with the leftover samples treated as a full batch
in subsequent bubbles (Fig. 12).  Components obey their dependency DAG:
a component joins the ready set only once all of its dependencies have
fully executed.  Whatever does not fit in any bubble executes after the
pipeline flush, data-parallel over all devices.

Per-layer prefix times (the cumulative execution time of a component's
remaining chain at a given device width) are memoised per
:class:`ProfileDB` in ``PlannerCaches.prefixes``, so the enumeration is
shared across bubbles, across strategies, and across a sweep's repeated
simulate-and-fill evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import FillingError
from ..models.graph import ModelSpec
from ..profiling.records import ProfileDB
from .bubbles import Bubble
from .caches import FillShapeCache, PlannerCaches, default_caches
from .lru import ProfileKeyedStore
from .plan import BubbleUtilization, FillItem, FillReport, positive_int

__all__ = [
    "VALID_LOCAL_BATCHES",
    "DEFAULT_MAX_CANDIDATES",
    "FillShapeCache",
    "ComponentState",
    "component_prefix_times",
    "prefix_times_raw",
    "full_batch_candidates",
    "valid_partial_samples",
    "BubbleFill",
    "fill_one_bubble",
    "apply_fill",
    "BubbleFiller",
]

#: §5's empirical local-batch-size menu for partial-batch layers
VALID_LOCAL_BATCHES: tuple[int, ...] = (4, 8, 12, 16, 24, 32, 48, 64, 96)

#: safety cap on FFC candidate enumeration (the paper's models have at
#: most three simultaneously-ready components, far below this)
DEFAULT_MAX_CANDIDATES = 4096


@dataclass
class ComponentState:
    """Mutable filling progress of one non-trainable component.

    ``next_layer`` is the first not-fully-processed layer;
    ``remaining`` is how many of the batch's samples that layer still
    has to process (== full batch for a fresh layer).
    """

    name: str
    num_layers: int
    batch: float
    next_layer: int = 0
    remaining: float = 0.0

    def __post_init__(self) -> None:
        # repro: allow[float-equality] 0.0 is the "unset" default, not math
        if self.remaining == 0.0:
            self.remaining = self.batch

    @property
    def done(self) -> bool:
        return self.next_layer >= self.num_layers

    def layer_batch(self, offset: int) -> float:
        """Samples still to process for the ``offset``-th remaining layer."""
        return self.remaining if offset == 0 else self.batch

    def consume_full(self, count: int) -> None:
        """Mark ``count`` leading remaining layers as fully processed."""
        if count < 0 or self.next_layer + count > self.num_layers:
            raise FillingError(
                f"{self.name}: cannot consume {count} layers at "
                f"{self.next_layer}/{self.num_layers}"
            )
        if count > 0:
            self.next_layer += count
            self.remaining = self.batch

    def consume_partial(self, layer: int, samples: float) -> None:
        """Process ``samples`` of the head layer."""
        if layer != self.next_layer:
            raise FillingError(
                f"{self.name}: partial batch must target the head layer "
                f"{self.next_layer}, got {layer}"
            )
        if samples <= 0 or samples > self.remaining + 1e-9:
            raise FillingError(
                f"{self.name}: invalid partial sample count {samples} "
                f"(remaining {self.remaining})"
            )
        self.remaining -= samples
        if self.remaining <= 1e-9:
            self.next_layer += 1
            self.remaining = self.batch


def component_prefix_times(
    profile: ProfileDB,
    comp: ComponentState,
    idle_devices: int,
    store: ProfileKeyedStore | None = None,
) -> tuple[float, ...]:
    """Cumulative forward times of ``comp``'s remaining chain at local
    batch ``layer_batch / idle_devices``: entry ``k`` is the time of the
    first ``k`` remaining layers, accumulated left to right (so a prefix
    of the array is bit-identical to summing the truncated chain).

    Memoised in ``store`` (default: the process-wide
    ``default_caches().prefixes``); shared by every strategy and every
    bubble that evaluates the same (state, device width) point.
    """
    return prefix_times_raw(
        profile,
        comp.name,
        comp.num_layers,
        comp.next_layer,
        comp.remaining,
        comp.batch,
        idle_devices,
        store,
    )


def prefix_times_raw(
    profile: ProfileDB,
    name: str,
    num_layers: int,
    next_layer: int,
    remaining: float,
    batch: float,
    idle_devices: int,
    store: ProfileKeyedStore | None = None,
) -> tuple[float, ...]:
    """:func:`component_prefix_times` on raw state fields — the hot
    form for search code that tracks states as plain tuples."""
    if store is None:
        store = default_caches().prefixes
    key = (name, next_layer, remaining, batch, idle_devices)
    hit = store.get(profile, key)
    if hit is not None:
        return hit
    prefix = [0.0]
    layer = next_layer
    while layer < num_layers:
        b = remaining if layer == next_layer else batch
        prefix.append(prefix[-1] + profile.fwd_ms(name, layer, b / idle_devices))
        layer += 1
    out = tuple(prefix)
    store.put(profile, key, out)
    return out


@dataclass(frozen=True)
class _Candidate:
    """An FFC candidate: per-ready-component counts of full-batch layers."""

    counts: tuple[int, ...]
    time_ms: float


def full_batch_candidates(
    profile: ProfileDB,
    ready: Sequence[ComponentState],
    bubble_ms: float,
    idle_devices: int,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    store: ProfileKeyedStore | None = None,
) -> tuple[list[_Candidate], int]:
    """Algorithm 2 (FFC): all maximal-prefix combinations that fit.

    Implemented iteratively over components (the paper's recursion
    unrolled): for component ``i`` every feasible prefix length
    ``k in {k0, ..., 0}`` branches the search with the remaining bubble
    time reduced accordingly.

    Returns ``(candidates, dropped)`` where ``dropped`` counts the
    partial enumerations discarded by the ``max_candidates`` cap — the
    cut keeps the longest-time partials with a deterministic tie-break
    (time, then lexicographically smallest counts), and the count is
    surfaced so truncation is never silent.
    """
    if bubble_ms < 0:
        raise FillingError("bubble time must be non-negative")
    if idle_devices <= 0:
        raise FillingError("idle device count must be positive")

    dropped = 0
    partials: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for comp in ready:
        # Cumulative times for this component's remaining chain (cached
        # across bubbles/strategies); layers beyond the bubble's own
        # capacity can never join a candidate.
        prefix_time = component_prefix_times(profile, comp, idle_devices, store)
        n_fit = 0
        while n_fit + 1 < len(prefix_time) and prefix_time[n_fit + 1] <= bubble_ms:
            n_fit += 1

        nxt: list[tuple[tuple[int, ...], float]] = []
        for counts, used in partials:
            # Largest k that still fits after the time already used.
            k0 = 0
            while k0 < n_fit and used + prefix_time[k0 + 1] <= bubble_ms + 1e-9:
                k0 += 1
            for k in range(k0, -1, -1):
                nxt.append((counts + (k,), used + prefix_time[k]))
        # Cap the enumeration, preferring candidates that use more time;
        # ties break on the lexicographically smallest counts so the cut
        # is deterministic regardless of enumeration order.
        if len(nxt) > max_candidates:
            dropped += len(nxt) - max_candidates
            nxt.sort(key=lambda cu: (-cu[1], cu[0]))
            nxt = nxt[:max_candidates]
        partials = nxt

    return [_Candidate(counts=c, time_ms=t) for c, t in partials], dropped


def valid_partial_samples(
    batch: float,
    idle_devices: int,
    remaining: float,
    menu: Sequence[int] = VALID_LOCAL_BATCHES,
) -> list[float]:
    """``getValidNumSamples``: total sample counts allowed for a
    partial-batch layer in a bubble with ``idle_devices`` idle devices.

    The *local* batch (samples per device) must come from the empirical
    menu, and the total must not exceed the layer's remaining samples.
    """
    out = []
    for local in menu:
        total = float(local * idle_devices)
        if total <= remaining + 1e-9 and total <= batch + 1e-9:
            out.append(total)
    return out


@dataclass(frozen=True)
class BubbleFill:
    """Chosen content of one bubble."""

    bubble_index: int
    items: tuple[FillItem, ...]
    time_ms: float
    candidates_dropped: int = 0


def fill_one_bubble(
    profile: ProfileDB,
    ready: Sequence[ComponentState],
    bubble: Bubble,
    bubble_index: int,
    *,
    enable_partial_batch: bool = True,
    partial_batch_menu: Sequence[int] = VALID_LOCAL_BATCHES,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    store: ProfileKeyedStore | None = None,
) -> BubbleFill:
    """Algorithm 1: choose the best filling for one bubble.

    Returns the filling (possibly empty) *without* mutating states;
    the caller applies it via :func:`apply_fill`.
    """
    d = bubble.weight
    tb = bubble.duration
    candidates, dropped = full_batch_candidates(
        profile, ready, tb, d, max_candidates=max_candidates, store=store
    )
    if not candidates:
        return BubbleFill(bubble_index, (), 0.0, dropped)

    # Selection needs only candidate *times*; FillItems are materialised
    # once, for the winner, after the scan.  ``best_partial`` describes
    # the winning candidate's partial-batch augmentation (if any) as
    # (ready index, layer, samples, time).
    best_cand: _Candidate | None = None
    best_partial: tuple[int, int, float, float] | None = None
    best_time = -1.0
    for cand in candidates:
        base_time = cand.time_ms
        options: list[tuple[float, tuple[int, int, float, float] | None]] = [
            (base_time, None)
        ]
        # Augment with at most one partial-batch layer (line 2-6 of Alg. 1).
        if enable_partial_batch:
            for h, comp in enumerate(ready):
                layer = comp.next_layer + cand.counts[h]
                if layer >= comp.num_layers:
                    continue
                remaining = comp.layer_batch(cand.counts[h])
                budget = tb - base_time
                chosen: tuple[float, float] | None = None
                for samples in valid_partial_samples(
                    comp.batch, d, remaining, partial_batch_menu
                ):
                    t = profile.fwd_ms(comp.name, layer, samples / d)
                    if t <= budget + 1e-9:
                        if chosen is None or samples > chosen[0]:
                            chosen = (samples, t)
                if chosen is not None:
                    options.append(
                        (base_time + chosen[1], (h, layer, chosen[0], chosen[1]))
                    )
        for t, partial in options:
            if t > best_time + 1e-12:
                best_time = t
                best_cand = cand
                best_partial = partial

    if best_cand is None:  # pragma: no cover - candidates always include ()
        return BubbleFill(bubble_index, (), 0.0, dropped)
    items = _candidate_items(profile, ready, best_cand, d, bubble_index)
    if best_partial is not None:
        h, layer, samples, t = best_partial
        items.append(
            FillItem(
                component=ready[h].name,
                layer=layer,
                samples=samples,
                time_ms=t,
                bubble_index=bubble_index,
                partial=True,
            )
        )
    return BubbleFill(bubble_index, tuple(items), max(best_time, 0.0), dropped)


def _candidate_items(
    profile: ProfileDB,
    ready: Sequence[ComponentState],
    cand: _Candidate,
    idle_devices: int,
    bubble_index: int,
) -> list[FillItem]:
    items: list[FillItem] = []
    for i, comp in enumerate(ready):
        for off in range(cand.counts[i]):
            layer = comp.next_layer + off
            samples = comp.layer_batch(off)
            t = profile.fwd_ms(comp.name, layer, samples / idle_devices)
            items.append(
                FillItem(
                    component=comp.name,
                    layer=layer,
                    samples=samples,
                    time_ms=t,
                    bubble_index=bubble_index,
                    partial=samples < comp.batch,
                )
            )
    return items


def apply_fill(
    states: Mapping[str, ComponentState], fill: BubbleFill
) -> None:
    """Advance component states according to a chosen bubble filling."""
    # Full-batch advances first (items are emitted head-first per
    # component), then the partial tail.
    full_counts: dict[str, int] = {}
    partial: list[FillItem] = []
    for item in fill.items:
        state = states[item.component]
        head = state.next_layer + full_counts.get(item.component, 0)
        if item.layer == head and abs(
            item.samples - state.layer_batch(full_counts.get(item.component, 0))
        ) < 1e-9:
            full_counts[item.component] = full_counts.get(item.component, 0) + 1
        else:
            partial.append(item)
    for name, count in full_counts.items():
        states[name].consume_full(count)
    for item in partial:
        states[item.component].consume_partial(item.layer, item.samples)


class BubbleFiller:
    """Drives §5 end to end: ready-set tracking + a pluggable policy.

    Parameters
    ----------
    profile:
        Layer timing database.
    model:
        The diffusion model (provides the non-trainable DAG).
    batch:
        Full batch size ``B`` that the non-trainable part processes per
        iteration (the pipeline-group batch).
    enable_partial_batch:
        Ablation flag (Fig. 15's "partial-batch layer disabled").
    strategy:
        Name of a registered :class:`~repro.core.fill_strategies.FillStrategy`
        (``greedy`` — the paper's Algorithms 1+2; ``lookahead`` — the
        pruned cross-bubble beam/DP planner; ``none`` — fill nothing).
    lookahead_beam:
        Beam-width cap for the ``lookahead`` strategy (None: the
        strategy's default).  It runs narrower than this by default and
        widens up to it at decision points.
    fill_cache:
        Optional :class:`FillShapeCache` shared across evaluations
        (normally ``PlannerCaches.fills``); None disables shape caching.
    caches:
        The :class:`PlannerCaches` owning the prefix-time store the
        strategies consult (``caches.prefixes``); the process-wide
        default instance when ``None``.
    schedule:
        Registry name of the schedule family whose bubbles are being
        filled; joins the shape-cache context identity.
    """

    def __init__(
        self,
        profile: ProfileDB,
        model: ModelSpec,
        batch: float,
        *,
        enable_partial_batch: bool = True,
        partial_batch_menu: Sequence[int] = VALID_LOCAL_BATCHES,
        max_candidates: int = DEFAULT_MAX_CANDIDATES,
        strategy: str = "greedy",
        lookahead_beam: int | None = None,
        fill_cache: "FillShapeCache | None" = None,
        caches: PlannerCaches | None = None,
        schedule: str = "onef1b",
    ):
        if batch <= 0:
            raise FillingError("batch must be positive")
        if lookahead_beam is not None and not positive_int(lookahead_beam):
            raise FillingError(
                f"lookahead_beam must be an integer >= 1, got {lookahead_beam!r}"
            )
        self.profile = profile
        self.model = model
        self.caches = caches if caches is not None else default_caches()
        self.batch = float(batch)
        self.enable_partial_batch = enable_partial_batch
        self.partial_batch_menu = tuple(partial_batch_menu)
        self.max_candidates = max_candidates
        self.strategy = strategy
        self.lookahead_beam = lookahead_beam
        self.fill_cache = fill_cache
        #: schedule family the bubbles came from; part of the shared
        #: shape-cache identity so fills found under one family's
        #: bubble geometry are never replayed under another's
        self.schedule = schedule
        self.states: dict[str, ComponentState] = {
            comp.name: ComponentState(
                name=comp.name,
                num_layers=profile.num_layers(comp.name),
                batch=self.batch,
            )
            for comp in model.non_trainable
        }

    # -- ready-set management -----------------------------------------------------

    def _done_names(
        self, states: Mapping[str, ComponentState] | None = None
    ) -> set[str]:
        states = self.states if states is None else states
        done = {n for n, s in states.items() if s.done}
        # Trainable components never gate the non-trainable DAG here:
        # their outputs belong to the *previous* iteration under
        # cross-iteration pipelining (§3.2).
        done |= {c.name for c in self.model.components.values() if c.trainable}
        return done

    def ready_components(
        self, states: Mapping[str, ComponentState] | None = None
    ) -> list[ComponentState]:
        """States of components whose dependencies are all complete."""
        states = self.states if states is None else states
        done = self._done_names(states)
        ready = []
        for comp in self.model.non_trainable:
            state = states[comp.name]
            if state.done:
                continue
            if all(dep in done for dep in comp.depends_on):
                ready.append(state)
        return ready

    # -- main drive -------------------------------------------------------------

    def fill(
        self, bubbles: Sequence[Bubble], leftover_devices: int = 1
    ) -> FillReport:
        """Fill bubbles under the configured strategy; return the report.

        ``leftover_devices`` is the data-parallel width available for
        whatever does not fit in bubbles (normally the pipeline group
        size ``D``)."""
        # Deferred import: the strategy module builds on this one.
        from .fill_strategies import get_fill_strategy

        return get_fill_strategy(self.strategy).fill(
            self, bubbles, leftover_devices
        )

    def build_report(
        self,
        bubbles: Sequence[Bubble],
        items: Sequence[FillItem],
        filled_device_time: float,
        leftover_devices: int,
        *,
        candidates_dropped: int = 0,
        per_bubble: Sequence[BubbleUtilization] = (),
        states: Mapping[str, ComponentState] | None = None,
        states_pruned: int = 0,
        beam_peak: int = 0,
    ) -> FillReport:
        """Assemble the :class:`FillReport` shared by all strategies."""
        leftover = self.leftover_ms(leftover_devices, states=states)
        return FillReport(
            items=tuple(items),
            filled_device_time_ms=filled_device_time,
            bubble_device_time_ms=sum(b.device_time for b in bubbles),
            leftover_ms=leftover,
            num_bubbles=len(bubbles),
            # repro: allow[float-equality] exact 0.0 iff no work remains
            complete=leftover == 0.0,
            strategy=self.strategy,
            candidates_dropped=candidates_dropped,
            per_bubble=tuple(per_bubble),
            states_pruned=states_pruned,
            beam_peak=beam_peak,
        )

    def leftover_ms(
        self,
        total_devices: int | None = None,
        states: Mapping[str, ComponentState] | None = None,
    ) -> float:
        """Time to run the unscheduled remainder after the flush,
        data-parallel over ``total_devices`` (default: the weight sum
        implied by the model's pipeline group is unknown here, so the
        caller usually passes it; without it we assume 1 device)."""
        d = total_devices if total_devices is not None else 1
        if d <= 0:
            raise FillingError("total_devices must be positive")
        states = self.states if states is None else states
        total = 0.0
        for comp in self.model.non_trainable:
            state = states[comp.name]
            off = 0
            while state.next_layer + off < state.num_layers:
                samples = state.layer_batch(off)
                total += self.profile.fwd_ms(
                    comp.name, state.next_layer + off, samples / d
                )
                off += 1
        return total
