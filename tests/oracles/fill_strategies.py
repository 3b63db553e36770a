"""Oracle of the ``lookahead`` fill strategy (§5).

The unpruned, uncached cross-bubble search that production
:class:`~repro.core.fill_strategies.LookaheadFill` adds dominance
pruning, shape-cache reuse and an adaptive beam to.  It is not in the
fill-strategy registry: tests call ``LookaheadReferenceFill().fill``
on a :class:`~repro.core.filling.BubbleFiller` directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.bubbles import Bubble
from repro.core.fill_strategies import (
    _chronological,
    _expand_state,
    _ExpansionTable,
    _greedy_baseline,
    _materialize,
    _MoveNode,
    _SearchCtx,
    _select,
    _StateKey,
    _walk_moves,
)
from repro.core.filling import BubbleFiller
from repro.core.plan import FillReport


def _rank_cut(
    ctx: _SearchCtx,
    states: dict[_StateKey, tuple[float, int, _MoveNode]],
    width: int,
) -> dict[_StateKey, tuple[float, int, _MoveNode]]:
    """Beam cut: keep the ``width`` states closest to completion
    (smallest estimated leftover, then most device-time filled, then a
    deterministic key tie-break)."""
    ranked = sorted(
        states.items(),
        key=lambda kv: (ctx.estimate(kv[0]), -kv[1][0], kv[0]),
    )
    return dict(ranked[:width])


class LookaheadReferenceFill:
    """The unpruned cross-bubble DP — the oracle of ``lookahead``.

    Processes bubbles chronologically like ``greedy``, but instead of
    committing to the per-bubble maximum it carries a set of reachable
    component-chain states forward.  Two paths reaching the same state
    have identical futures, so states are deduplicated (a DP over chain
    states); while the reachable set stays within the beam cap the
    search is exhaustive over the per-bubble action space, beyond it
    only the most promising states survive (beam search).  Expansion
    enumerates every FFC candidate and every partial-batch sample count
    — not just the greedy maximum — which is what finds trades like
    holding a short layer for the next, wider bubble.

    The final plan is the terminal state with the smallest exact
    ``leftover_ms``; the greedy trajectory is evaluated alongside and
    adopted whenever it is strictly better (on a tie the beam plan is
    kept — it maximised filled device-time), so the result never reports
    a larger leftover than ``greedy`` on the same instance.

    This is the pre-optimization ``lookahead`` retained verbatim: no
    dominance pruning, no shape cache, no adaptive schedule.  The
    production ``lookahead`` must stay bit-identical to it on every
    instance where neither search hits a beam cut and the FFC
    enumeration stays within the production strategy's tighter
    candidate cap (the differential suite's property; its instances
    are sized well inside both conditions).
    """

    name = "lookahead_reference"

    #: reachable-state cap: exact DP below, beam search above
    #: (overridden by ``BubbleFiller.lookahead_beam`` when set)
    beam_width = 64
    #: per-(state, bubble) FFC enumeration cap during the search
    max_candidates = 256

    def fill(
        self,
        filler: "BubbleFiller",
        bubbles: Sequence[Bubble],
        leftover_devices: int,
    ) -> FillReport:
        ordered = _chronological(bubbles)
        ctx = _SearchCtx(filler, leftover_devices, ordered)
        beam_cap = filler.lookahead_beam or self.beam_width
        cap = min(filler.max_candidates, self.max_candidates)
        table = _ExpansionTable({})

        # beam: state key -> (filled_device_time, dropped, move chain)
        beam: dict[_StateKey, tuple[float, int, _MoveNode]] = {
            ctx.initial_key(): (0.0, 0, None)
        }
        pruned = 0
        peak = len(beam)
        for pos, (index, bubble) in enumerate(ordered):
            nxt: dict[_StateKey, tuple[float, int, _MoveNode]] = {}
            for key, (filled, dropped, moves) in beam.items():
                _expand_state(
                    ctx, key, filled, dropped, moves, pos, bubble, nxt,
                    table, cap,
                )
            if len(nxt) > peak:
                peak = len(nxt)
            if len(nxt) > beam_cap:
                pruned += len(nxt) - beam_cap
                nxt = _rank_cut(ctx, nxt, beam_cap)
            beam = nxt

        best = _select(ctx, beam)
        if best is None or best[0] > 0.0:
            # Greedy floor: only worth running when the beam left work
            # over — a zero leftover cannot be beaten, and on a tie the
            # beam plan is kept anyway, so skipping changes nothing.
            greedy, scratch = _greedy_baseline(filler, bubbles, leftover_devices)
            if best is None or greedy.leftover_ms < best[0]:
                # The beam (or its estimates) lost the greedy
                # trajectory: fall back to it so the search is never
                # strictly worse than greedy.  Adopt the scratch
                # filler's final states so the caller's filler stays
                # consistent with the returned report.
                for name, state in scratch.states.items():
                    filler.states[name].next_layer = state.next_layer
                    filler.states[name].remaining = state.remaining
                return replace(
                    greedy, strategy=self.name,
                    states_pruned=pruned, beam_peak=peak,
                )
        leftover, filled, dropped, moves = best
        return _materialize(
            filler,
            ordered,
            bubbles,
            _walk_moves(moves),
            filled,
            dropped,
            leftover_devices,
            states_pruned=pruned,
            beam_peak=peak,
        )
