"""SketchQuantile: continuous *approximate* quantiles via mergeable sketches.

Where POS/HBC/IQ maintain the exact k-th value, this family guarantees only
``|rank(answer) - k| <= eps * |N|`` — and buys energy with the slack.  Two
operating modes share one driver:

* **one-shot** (``gated=False``) — the TAG analogue: every round each
  sensor wraps its measurement in a one-value sketch, the tree merges
  sketches in-network (:class:`~repro.sketch.payload.SketchPayload`), and
  the root answers from the merged sketch.  With a q-digest the per-round
  error is deterministically at most ``eps * n``.

* **validation-gated** (``gated=True``) — the continuous variant: the root
  caches the answer ``f`` and sound bounds on its rank, derived from the
  sketch (``rank_bounds``).  Each round, only nodes whose measurement
  crossed ``f`` send POS-style transition counters, which shift the bounds
  *exactly*.  The cached answer is re-used while the worst-case rank error
  provably stays within ``eps * n``; only when the distribution has drifted
  past the budget does the root request a fresh sketch convergecast (and
  re-broadcasts the new filter).  The sketch itself runs at ``eps / 2`` so
  a fresh answer always leaves drift head-room.

With the q-digest backend both modes are deterministically correct to
``eps * n``; with KLL the same gate logic runs on point estimates and the
guarantee is probabilistic (see ``sketch/kll.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import REFINEMENT_REQUEST_BITS, VALUE_BITS
from repro.core.base import (
    EQ,
    LT,
    ContinuousQuantileAlgorithm,
    build_transitions,
    classify,
    classify_array,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.engine import TreeNetwork
from repro.sketch import (
    KLLSketch,
    QuantileSketch,
    SketchPayload,
    one_value_digests,
)
from repro.types import QuerySpec, RoundOutcome

#: Sketch backends this algorithm can run on.
SKETCH_KINDS = ("qdigest", "kll")


@dataclass
class RankBounds:
    """Sound bounds on the rank of a boundary value ``f``.

    ``l_lo <= #{values < f} <= l_hi`` and ``le_lo <= #{values <= f} <=
    le_hi``: anchored from a sketch's rank bounds, then moved exactly by
    transition counters and membership changes.  This is the one rank-bound
    rule of the gated sketch tracker and of every serving-gate target.
    """

    l_lo: int = 0
    l_hi: int = 0
    le_lo: int = 0
    le_hi: int = 0

    def anchor(self, sketch: QuantileSketch, value: int, missing: int) -> None:
        """Re-anchor at ``value`` from the sketch's own rank bounds.

        When the sketch saw ``missing`` fewer values than the population
        holds (message loss or churn eating subtrees), each missing value
        could lie on either side of ``value``, so both upper bounds widen by
        that count: the bounds stay *sound* for the full population, and a
        lossy collection narrows the head-room instead of poisoning it.
        """
        self.l_lo, l_hi = sketch.rank_bounds(value)
        self.le_lo, le_hi = sketch.rank_bounds(value + 1)
        self.l_hi = l_hi + missing
        self.le_hi = le_hi + missing

    def shift(self, into_lt: int, outof_lt: int, into_gt: int, outof_gt: int) -> None:
        """Apply one round's merged transition counters exactly."""
        delta_l = into_lt - outof_lt
        delta_g = into_gt - outof_gt
        self.l_lo += delta_l
        self.l_hi += delta_l
        # #{<= f} = n - #{> f} shifts opposite to the gt counter.
        self.le_lo -= delta_g
        self.le_hi -= delta_g

    def move(self, label: int, delta: int) -> None:
        """A node whose value is ``label`` against ``f`` joins (``delta=1``)
        or leaves (``delta=-1``).

        Its label was tracked exactly, so the bounds move exactly: a value
        ``< f`` counts in ``#{< f}`` and ``#{<= f}``, a value ``== f`` only in
        ``#{<= f}``, a value ``> f`` in neither.  A departure clamps the
        bounds it moves at zero.
        """

        def moved(bound: int) -> int:
            return bound + delta if delta > 0 else max(0, bound + delta)

        if label == LT:
            self.l_lo, self.l_hi = moved(self.l_lo), moved(self.l_hi)
        if label in (LT, EQ):
            self.le_lo, self.le_hi = moved(self.le_lo), moved(self.le_hi)

    def worst_rank_error(self, k: int) -> int:
        """An upper bound on ``f``'s rank error as the answer for rank ``k``.

        The true error ``max(0, l + 1 - k, k - (l + e))`` is at most this,
        whatever ``#{< f}`` and ``#{<= f}`` are within their bounds.
        """
        return max(0, self.l_hi + 1 - k, k - self.le_lo)


class SketchQuantile(ContinuousQuantileAlgorithm):
    """Continuous approximate quantile tracking over a sketch convergecast.

    Args:
        spec: the quantile query and measurement universe.
        eps: rank-error budget as a fraction of ``|N|``; the reported value
            always has ``|rank - k| <= eps * |N|`` (deterministic for
            ``qdigest``, probabilistic for ``kll``).
        kind: sketch backend, one of :data:`SKETCH_KINDS`.
        gated: reuse the cached answer until drift exhausts the budget
            instead of re-shipping a sketch every round.
        seed: deterministic randomness seed (KLL compaction coins only).
    """

    #: Approximate: the runner must not assert oracle equality.
    exact = False

    def __init__(
        self,
        spec: QuerySpec,
        eps: float = 0.05,
        kind: str = "qdigest",
        gated: bool = True,
        seed: int = 20140324,
    ) -> None:
        super().__init__(spec)
        if not 0.0 < eps < 1.0:
            raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
        if kind not in SKETCH_KINDS:
            raise ConfigurationError(
                f"unknown sketch kind {kind!r}; expected one of {SKETCH_KINDS}"
            )
        self.eps = eps
        self.kind = kind
        self.gated = gated
        self.seed = seed
        self.name = "SKQ" if gated else "SK1"
        # The gated mode splits the budget: eps/2 for the sketch, eps/2 of
        # head-room for exactly-tracked drift before a refresh is forced.
        self._sketch_eps = eps / 2.0 if gated else eps
        self._kll_k = KLLSketch.k_for_eps(self._sketch_eps)
        self._filter: int | None = None
        self._bounds = RankBounds()  # on #{< f} and #{<= f}
        self._state: np.ndarray | None = None

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        net.phase = "initialization"
        net.broadcast(VALUE_BITS)  # query dissemination: phi and eps
        sketch = self._collect(net, values)
        quantile = sketch.quantile(min(k, sketch.n))
        self.current_quantile = quantile
        if not self.gated:
            return RoundOutcome(quantile=quantile)
        self._adopt(net, values, sketch, quantile)
        return RoundOutcome(quantile=quantile, filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        if not self.gated:
            sketch = self._collect(net, values)
            quantile = sketch.quantile(min(k, sketch.n))
            self.current_quantile = quantile
            return RoundOutcome(quantile=quantile)

        if self._filter is None or self._state is None:
            raise ProtocolError("update() called before initialize()")

        # Validation: exact transition counters from nodes that crossed f.
        new_state = classify_array(
            values, self._filter, None, self.participation_mask(net)
        )
        contributions = build_transitions(self._state, new_state)
        net.phase = "validation"
        merged = net.convergecast(contributions)
        if merged is not None:
            self._bounds.shift(
                merged.into_lt, merged.outof_lt, merged.into_gt, merged.outof_gt
            )
        self._state = new_state

        if self._bounds.worst_rank_error(k) <= self.eps * self.population(net):
            self.current_quantile = self._filter
            return RoundOutcome(quantile=self._filter)

        # Drift exhausted the budget: re-ship sketches and re-anchor.
        net.phase = "refinement"
        net.broadcast(REFINEMENT_REQUEST_BITS)
        sketch = self._collect(net, values)
        quantile = sketch.quantile(min(k, sketch.n))
        self._adopt(net, values, sketch, quantile)
        self.current_quantile = quantile
        return RoundOutcome(
            quantile=quantile, refinements=1, filter_broadcast=True
        )

    # -- helpers --------------------------------------------------------------

    def _collect(self, net: TreeNetwork, values: np.ndarray) -> QuantileSketch:
        """One sketch convergecast: every sensor ships its measurement.

        q-digests travel as a column batch while no hop can compress
        (:func:`~repro.sketch.payload.one_value_digests`).
        """
        net.phase = "collection"
        sensors = self.participating_sensors(net)
        if self.kind == "qdigest":
            ids = np.array(sensors, dtype=np.int64)
            contributions = one_value_digests(
                ids, values[ids], self._sketch_eps, self.spec.r_min, self.spec.r_max
            )
        else:
            # Per-vertex seeds keep compaction coins independent; the merge
            # combines them order-insensitively (min).
            contributions = {
                vertex: SketchPayload(
                    KLLSketch.from_values(
                        (int(values[vertex]),), k=self._kll_k, seed=self.seed + vertex
                    )
                )
                for vertex in sensors
            }
        merged = net.convergecast(contributions)
        if merged is None:
            raise ProtocolError("sketch convergecast delivered nothing")
        return merged.sketch

    def _adopt(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        sketch: QuantileSketch,
        quantile: int,
    ) -> None:
        """Broadcast the new filter and re-anchor the rank bounds, widened
        by the values the sketch did not see."""
        net.phase = "filter"
        net.broadcast(VALUE_BITS)
        self._filter = quantile
        missing = max(0, self.population(net) - sketch.n)
        self._bounds.anchor(sketch, quantile, missing)
        self._state = classify_array(
            values, quantile, None, self.participation_mask(net)
        )

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self._state is None:
            return
        bounds = self._bounds
        bounds.move(int(self._state[vertex]), -1)
        self._state[vertex] = EQ
        # Unlike a serving-gate target, SKQ clamps the bounds that did not
        # move too.
        bounds.l_lo, bounds.l_hi = max(0, bounds.l_lo), max(0, bounds.l_hi)
        bounds.le_lo, bounds.le_hi = max(0, bounds.le_lo), max(0, bounds.le_hi)

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self._state is None or self._filter is None:
            return
        label = classify(int(values[vertex]), self._filter)
        self._bounds.move(label, 1)
        self._state[vertex] = label

    def handover_state_bits(self) -> int:
        # The base's (l, e, g) slot carries the l-bounds; the le-bounds
        # interval is the extra root-side state the successor inherits.
        return super().handover_state_bits() + 2 * VALUE_BITS
