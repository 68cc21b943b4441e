"""IQ: Interval-based Quantiles, the paper's heuristic algorithm (Section 4.2).

IQ avoids iterative refinement altogether by having nodes transmit their raw
value during validation whenever it falls into the adaptive band Ξ around
the last quantile.  If the new quantile lies inside Ξ the root reads it off
the received multiset ``A`` with pure rank arithmetic; otherwise a single
refinement convergecast fetches exactly the ``f`` extreme values needed
(pruned in-network, ties of the boundary kept so duplicates are handled
exactly).  Every round therefore finishes after at most two convergecasts —
the property the paper trades the ``O(|N|)`` worst case for.

Rank bookkeeping (Figure 3 of the paper):

* ``a`` / ``b``: values of ``A`` below / above the old quantile ``f``;
* ``L = l - a``: values strictly below Ξ's lower edge;
* ``U = l + e + b``: values at or below Ξ's upper edge.

Downward rounds: the quantile is ``A[k - L - 1]`` when ``L < k``; otherwise
the root requests the ``f1 = L - k + 1`` largest values below Ξ.  Upward
rounds mirror this with ``f2 = k - U`` smallest values above Ξ.
"""

from __future__ import annotations

import numpy as np

from repro.constants import COUNTER_BITS, REFINEMENT_REQUEST_BITS, VALUE_BITS
from repro.core.base import (
    EQ,
    GT,
    FilterQuantile,
    RootCounters,
    hint_bounds,
    request_values,
    tag_initialization,
)
from repro.core.payloads import ValidationPayload
from repro.core.xi import InitPolicy, XiTracker, initial_xi
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import IQDiagnostics, QuerySpec, RoundOutcome


class IQ(FilterQuantile):
    """Interval-based Quantiles.

    Args:
        spec: the quantile query and measurement universe.
        window: number of recent quantiles ``m`` driving Ξ adaptation.
        xi_init: seeding policy for Ξ (Section 4.2.1).
        xi_scale: the constant ``c`` of the seeding formula.
        use_hints: bound refinement responders with the max-difference hint
            (Section 5.1.6); disabling it reproduces plain [19]-style
            refinement over the unbounded interval.
        record_diagnostics: keep a per-round :class:`IQDiagnostics` trace
            (used to regenerate Figure 4).
    """

    name = "IQ"

    def __init__(
        self,
        spec: QuerySpec,
        window: int = 6,
        xi_init: InitPolicy = "mean_gap",
        xi_scale: float = 2.0,
        use_hints: bool = True,
        record_diagnostics: bool = False,
    ) -> None:
        super().__init__(spec)
        self.window = window
        self.xi_init: InitPolicy = xi_init
        self.xi_scale = xi_scale
        self.use_hints = use_hints
        self.record_diagnostics = record_diagnostics
        self.diagnostics: list[IQDiagnostics] = []
        self._tracker: XiTracker | None = None

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        quantile, counters, smallest = tag_initialization(
            net, values, k, participants=self.participating_sensors(net)
        )
        xi_seed = initial_xi(smallest, policy=self.xi_init, scale=self.xi_scale)
        net.phase = "filter"
        net.broadcast(2 * VALUE_BITS)  # filter broadcast: (v_k, xi)
        self._tracker = XiTracker(quantile, xi_seed, window=self.window)
        self._anchor(net, values, counters)
        self.current_quantile = quantile
        self._record(net, values, quantile, refined=False)
        return RoundOutcome(quantile=quantile, filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if self._tracker is None:
            raise ProtocolError("update() called before initialize()")
        hints_stale = self.consume_stale_hints()
        k = self.rank(net)
        old_quantile = self._tracker.current_quantile
        band_low, band_high = self._tracker.band()

        # POS-style counters, plus the multiset A: nodes inside Ξ send
        # their value (the old quantile's own duplicates are counted in e).
        in_band = (
            self.participation_mask(net)
            & (values >= band_low)
            & (values <= band_high)
            & (values != old_quantile)
        )
        merged = self._validate(net, values, in_band)
        counters = self.counters
        received_a = merged.values if merged is not None else ()

        position = counters.position_of_rank(k)
        if position == EQ:
            quantile, refined = old_quantile, False
        elif position == GT:
            quantile, counters, refined = self._resolve_up(
                net, values, k, old_quantile, band_high, received_a, merged,
                hints_stale,
            )
        else:
            quantile, counters, refined = self._resolve_down(
                net, values, k, old_quantile, band_low, received_a, merged,
                hints_stale,
            )

        if position != EQ:
            net.phase = "filter"
            net.broadcast(VALUE_BITS)
        self._tracker.observe(quantile)
        self._anchor(net, values, counters)
        self.current_quantile = quantile
        self._record(net, values, quantile, refined=refined)
        return RoundOutcome(
            quantile=quantile,
            refinements=1 if refined else 0,
            filter_broadcast=position != EQ,
        )

    # -- the filter -----------------------------------------------------------

    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter (IQ filters against the quantile value)."""
        if self._tracker is None:
            raise ProtocolError("filter_bounds() called before initialize()")
        quantile = self._tracker.current_quantile
        return quantile, quantile

    def _collapse(self, quantile: int, quantile_history: list[int] | None) -> None:
        """Re-seed Ξ from the recent history instead of a fresh band.

        ``quantile_history`` (oldest first, ``quantile`` last) replays the
        switcher's observed quantiles into a fresh tracker so the band is
        trend-aware from the first adopted round.
        """
        history = list(quantile_history or [quantile])
        if history[-1] != quantile:
            history.append(quantile)
        deltas = [b - a for a, b in zip(history, history[1:])]
        seed = max(1, max((abs(d) for d in deltas), default=1))
        self._tracker = XiTracker(history[0], seed, window=self.window)
        for value in history[1:]:
            self._tracker.observe(value)

    # -- resolution -----------------------------------------------------------

    def _resolve_down(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        k: int,
        old_quantile: int,
        band_low: int,
        received_a: tuple[int, ...],
        merged: ValidationPayload | None,
        hints_stale: bool = False,
    ) -> tuple[int, RootCounters, bool]:
        """The new quantile lies below the old one (``l >= k``)."""
        counters = self.counters
        assert counters is not None
        a_below = sum(1 for x in received_a if x < old_quantile)
        below_band = counters.l - a_below  # L: values strictly below Ξ
        if below_band < k:
            quantile = received_a[k - below_band - 1]
            less = below_band + sum(1 for x in received_a if x < quantile)
            equal = sum(1 for x in received_a if x == quantile)
            exact = RootCounters(
                l=less, e=equal, g=self.population(net) - less - equal
            )
            return quantile, exact, False

        fetch = below_band - k + 1  # f1 largest values below the band
        hint_low, _ = hint_bounds(
            merged, old_quantile, old_quantile, self.spec, symmetric=True
        )
        low_bound = (
            hint_low if self.use_hints and not hints_stale else self.spec.r_min
        )
        received = self._refinement(
            net, values, low_bound, band_low - 1, fetch, keep_largest=True
        )
        if len(received) < fetch:
            raise ProtocolError(
                f"downward refinement returned {len(received)} < f1={fetch} values"
            )
        quantile = received[len(received) - fetch]
        less = below_band - len(received)
        equal = sum(1 for x in received if x == quantile)
        exact = RootCounters(l=less, e=equal, g=self.population(net) - less - equal)
        return quantile, exact, True

    def _resolve_up(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        k: int,
        old_quantile: int,
        band_high: int,
        received_a: tuple[int, ...],
        merged: ValidationPayload | None,
        hints_stale: bool = False,
    ) -> tuple[int, RootCounters, bool]:
        """The new quantile lies above the old one (``l + e < k``)."""
        counters = self.counters
        assert counters is not None
        a_above = sum(1 for x in received_a if x > old_quantile)
        at_most_band = counters.l + counters.e + a_above  # U: values <= Ξ's top
        if at_most_band >= k:
            offset = k - counters.l - counters.e  # rank among A's upper part
            index = (len(received_a) - a_above) + offset - 1
            quantile = received_a[index]
            less = (
                counters.l
                + counters.e
                + sum(1 for x in received_a if old_quantile < x < quantile)
            )
            equal = sum(1 for x in received_a if x == quantile)
            exact = RootCounters(
                l=less, e=equal, g=self.population(net) - less - equal
            )
            return quantile, exact, False

        fetch = k - at_most_band  # f2 smallest values above the band
        _, hint_high = hint_bounds(
            merged, old_quantile, old_quantile, self.spec, symmetric=True
        )
        high_bound = (
            hint_high if self.use_hints and not hints_stale else self.spec.r_max
        )
        received = self._refinement(
            net, values, band_high + 1, high_bound, fetch, keep_largest=False
        )
        if len(received) < fetch:
            raise ProtocolError(
                f"upward refinement returned {len(received)} < f2={fetch} values"
            )
        quantile = received[fetch - 1]
        less = at_most_band + sum(1 for x in received if x < quantile)
        equal = sum(1 for x in received if x == quantile)
        exact = RootCounters(l=less, e=equal, g=self.population(net) - less - equal)
        return quantile, exact, True

    def _refinement(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        low: int,
        high: int,
        fetch: int,
        keep_largest: bool,
    ) -> tuple[int, ...]:
        """One pruned value convergecast from the interval ``[low, high]``."""
        if fetch < 1:
            raise ProtocolError(f"refinement fetch count must be >= 1, got {fetch}")
        net.phase = "refinement"
        net.broadcast(REFINEMENT_REQUEST_BITS + COUNTER_BITS)
        return request_values(
            net,
            values,
            self.participating_sensors(net),
            low,
            high,
            keep=fetch,
            keep_largest=keep_largest,
        )

    def handover_state_bits(self) -> int:
        # The successor must continue the Ξ band exactly, so the whole
        # quantile history window rides along with the base state.
        bits = super().handover_state_bits()
        if self._tracker is not None:
            bits += self._tracker.history_length * VALUE_BITS
        return bits

    # -- helpers --------------------------------------------------------------

    def _record(
        self, net: TreeNetwork, values: np.ndarray, quantile: int, refined: bool
    ) -> None:
        if not self.record_diagnostics:
            return
        assert self._tracker is not None
        band_low, band_high = self._tracker.band()
        sensor_values = [int(values[v]) for v in net.tree.sensor_nodes]
        in_band = sum(1 for v in sensor_values if band_low <= v <= band_high)
        self.diagnostics.append(
            IQDiagnostics(
                quantile=quantile,
                xi_left=self._tracker.xi_left,
                xi_right=self._tracker.xi_right,
                values_in_xi=in_band,
                refined=refined,
                network_min=min(sensor_values),
                network_max=max(sensor_values),
            )
        )
