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
from repro.sketch import KLLSketch, QDigest, QuantileSketch, SketchPayload
from repro.types import QuerySpec, RoundOutcome

#: Sketch backends this algorithm can run on.
SKETCH_KINDS = ("qdigest", "kll")


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
        self._l_bounds: tuple[int, int] | None = None  # bounds on #{< f}
        self._le_bounds: tuple[int, int] | None = None  # bounds on #{<= f}
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
        assert self._l_bounds is not None and self._le_bounds is not None

        # Validation: exact transition counters from nodes that crossed f.
        new_state = classify_array(
            values, self._filter, None, self.participation_mask(net)
        )
        contributions = build_transitions(self._state, new_state)
        net.phase = "validation"
        merged = net.convergecast(contributions)
        if merged is not None:
            delta_l = merged.into_lt - merged.outof_lt
            delta_g = merged.into_gt - merged.outof_gt
            self._l_bounds = (
                self._l_bounds[0] + delta_l,
                self._l_bounds[1] + delta_l,
            )
            # #{<= f} = n - #{> f} shifts opposite to the gt counter.
            self._le_bounds = (
                self._le_bounds[0] - delta_g,
                self._le_bounds[1] - delta_g,
            )
        self._state = new_state

        if self._worst_case_error(k) <= self.eps * self.population(net):
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

    def _worst_case_error(self, k: int) -> int:
        """An upper bound on the cached answer's current rank error.

        ``[l_lo, l_hi]`` soundly bounds ``#{values < f}`` and
        ``[le_lo, le_hi]`` bounds ``#{values <= f}`` (q-digest bounds
        shifted by exactly-counted transitions), so the true error
        ``max(0, l + 1 - k, k - (l + e))`` is at most this.
        """
        assert self._l_bounds is not None and self._le_bounds is not None
        return max(0, self._l_bounds[1] + 1 - k, k - self._le_bounds[0])

    def _collect(self, net: TreeNetwork, values: np.ndarray) -> QuantileSketch:
        """One sketch convergecast: every sensor ships its measurement."""
        net.phase = "collection"
        contributions = {
            vertex: SketchPayload(self._local_sketch(int(values[vertex]), vertex))
            for vertex in self.participating_sensors(net)
        }
        merged = net.convergecast(contributions)
        if merged is None:
            raise ProtocolError("sketch convergecast delivered nothing")
        return merged.sketch

    def _local_sketch(self, value: int, vertex: int) -> QuantileSketch:
        if self.kind == "qdigest":
            return QDigest.from_values(
                (value,), self._sketch_eps, self.spec.r_min, self.spec.r_max
            )
        # Per-vertex seeds keep compaction coins independent; the merge
        # combines them order-insensitively (min).
        return KLLSketch.from_values(
            (value,), k=self._kll_k, seed=self.seed + vertex
        )

    def _adopt(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        sketch: QuantileSketch,
        quantile: int,
    ) -> None:
        """Broadcast the new filter and re-anchor the rank bounds.

        When the sketch saw fewer values than the network holds (message
        loss or churn eating subtrees), each missing value could lie on
        either side of the filter, so the upper bounds widen by the missing
        count.  The bounds stay *sound* for the full population — a lossy
        collection narrows the gate's head-room instead of poisoning it.
        """
        net.phase = "filter"
        net.broadcast(VALUE_BITS)
        self._filter = quantile
        l_lo, l_hi = sketch.rank_bounds(quantile)
        le_lo, le_hi = sketch.rank_bounds(quantile + 1)
        missing = max(0, self.population(net) - sketch.n)
        self._l_bounds = (l_lo, l_hi + missing)
        self._le_bounds = (le_lo, le_hi + missing)
        self._state = classify_array(
            values, quantile, None, self.participation_mask(net)
        )

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self._state is None:
            return
        assert self._l_bounds is not None and self._le_bounds is not None
        # The departing node's label was tracked exactly, so the sound rank
        # bounds shift exactly: a value < f leaves #{< f} and #{<= f}, a
        # value == f leaves only #{<= f}, a value > f leaves neither.
        label = int(self._state[vertex])
        if label == LT:
            self._l_bounds = (self._l_bounds[0] - 1, self._l_bounds[1] - 1)
        if label in (LT, EQ):
            self._le_bounds = (self._le_bounds[0] - 1, self._le_bounds[1] - 1)
        self._state[vertex] = EQ
        self._l_bounds = (max(0, self._l_bounds[0]), max(0, self._l_bounds[1]))
        self._le_bounds = (max(0, self._le_bounds[0]), max(0, self._le_bounds[1]))

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self._state is None or self._filter is None:
            return
        assert self._l_bounds is not None and self._le_bounds is not None
        label = classify(int(values[vertex]), self._filter)
        if label == LT:
            self._l_bounds = (self._l_bounds[0] + 1, self._l_bounds[1] + 1)
        if label in (LT, EQ):
            self._le_bounds = (self._le_bounds[0] + 1, self._le_bounds[1] + 1)
        self._state[vertex] = label

    def handover_state_bits(self) -> int:
        # The base's (l, e, g) slot carries the l-bounds; the le-bounds
        # interval is the extra root-side state the successor inherits.
        return super().handover_state_bits() + 2 * VALUE_BITS
