"""HBC: the Histogram-Based Continuous quantile algorithm (Section 4.1).

HBC marries POS's validation/filtering with the cost-model-driven b-ary
histogram refinement of the authors' snapshot algorithm [21]:

* validation is POS-like, but transmits the Section 5.1.6 *max-difference*
  hint (one value instead of two);
* refinement repeatedly broadcasts an interval, collects an aggregated
  ``b``-bucket histogram from the nodes inside it, and descends into the
  bucket containing rank ``k`` until that bucket covers a single value;
* ``b`` is fixed once from the Lambert-W cost model (the paper found
  per-round recomputation made no measurable difference);
* with ``interval_tracking`` (the Section 4.1.2 extension, default on) nodes
  filter against the bounds of the last refinement request, which removes
  the end-of-round threshold broadcast;
* with ``direct_request_limit > 0`` (the [21] heuristic, default on) the
  root requests raw values once few enough candidates remain; because the
  nodes can then no longer infer the new quantile from the request stream,
  such rounds end with one filter broadcast that also resets the tracked
  interval to ``[v_k, v_k]`` — this is how the two extensions compose.

All root-side state (the ``l``/``e``/``g`` counters) is derived exclusively
from received payloads, never from a central view of the measurements, so
the simulation accounts every bit the real protocol would transmit.
"""

from __future__ import annotations

import numpy as np

from repro.constants import REFINEMENT_REQUEST_BITS, VALUE_BITS, VALUES_PER_MESSAGE
from repro.core.base import (
    EQ,
    GT,
    FilterQuantile,
    RootCounters,
    collect_histogram,
    hint_bounds,
)
from repro.core.cost_model import exact_optimal_buckets, rounded_optimal_buckets
from repro.core.histogram import locate_bucket, make_grid
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome


class HBC(FilterQuantile):
    """Histogram-Based Continuous quantile queries.

    Args:
        spec: the quantile query and measurement universe.
        num_buckets: histogram fan-out ``b``; ``None`` selects the cost-model
            optimum (Section 4.1 / [21]).
        interval_tracking: enable the Section 4.1.2 extension.
        direct_request_limit: raw-value shortcut threshold (0 disables).
        compressed_histograms: drop empty buckets from the on-air encoding
            ([21]'s histogram compression).
        recompute_buckets: re-derive the exact discrete bucket optimum for
            every refinement interval instead of fixing ``b`` once.  The
            paper kept ``b`` fixed because "the difference in performance
            was marginal" (Section 4.1.1); the bucket ablation bench
            verifies that observation.
    """

    name = "HBC"

    def __init__(
        self,
        spec: QuerySpec,
        num_buckets: int | None = None,
        interval_tracking: bool = True,
        direct_request_limit: int = VALUES_PER_MESSAGE,
        compressed_histograms: bool = True,
        recompute_buckets: bool = False,
    ) -> None:
        super().__init__(spec)
        self.recompute_buckets = recompute_buckets
        self.num_buckets = (
            rounded_optimal_buckets() if num_buckets is None else num_buckets
        )
        if self.num_buckets < 2:
            raise ProtocolError(f"need at least 2 buckets, got {self.num_buckets}")
        self.interval_tracking = interval_tracking
        self.direct_request_limit = direct_request_limit
        self.compressed_histograms = compressed_histograms
        self._low: int | None = None
        self._high: int | None = None

    # -- rounds ---------------------------------------------------------------

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        merged = self._validate(net, values)
        hints_stale = self.consume_stale_hints()
        k = self.rank(net)
        counters = self.counters
        position = counters.position_of_rank(k)
        if position == EQ and self._low == self._high:
            # The tracked interval has collapsed onto the quantile and the
            # counters confirm it is still exact: nothing else to do.
            self.current_quantile = self._low
            return RoundOutcome(quantile=self._low)

        if hints_stale:
            hint_low, hint_high = self.spec.r_min, self.spec.r_max
        else:
            hint_low, hint_high = hint_bounds(
                merged, self._low, self._high, self.spec, symmetric=True
            )
        below_low: int | None
        above_high: int | None
        if position == GT:
            low, high = self._high + 1, hint_high
            below_low, above_high = counters.l + counters.e, None
        elif position == EQ:
            low, high = self._low, self._high
            below_low, above_high = counters.l, counters.g
        else:
            low, high = hint_low, self._low - 1
            below_low, above_high = None, counters.e + counters.g
        if low > high:
            raise ProtocolError("empty refinement interval")

        outcome = self._refine(net, values, k, low, high, below_low, above_high)
        self.current_quantile = outcome.quantile
        return outcome

    # -- the filter -----------------------------------------------------------

    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter interval (collapses to a point after resets)."""
        if self._low is None or self._high is None:
            raise ProtocolError("filter_bounds() called before initialize()")
        return self._low, self._high

    def _collapse(self, quantile: int, quantile_history: list[int] | None) -> None:
        self._low = self._high = quantile

    # -- refinement -----------------------------------------------------------

    def _refine(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        k: int,
        low: int,
        high: int,
        below_low: int | None,
        above_high: int | None,
    ) -> RoundOutcome:
        """Histogram descent into ``[low, high]`` until rank ``k`` is pinned.

        One of ``below_low``/``above_high`` may start unknown (hint-derived
        bound); the first histogram response makes both exact.
        """
        num_nodes = self.population(net)
        refinements = 0
        while True:
            inside_estimate = (num_nodes - (above_high or 0)) - (below_low or 0)
            if (
                0 < self.direct_request_limit
                and inside_estimate <= self.direct_request_limit
            ):
                return self._direct_request(
                    net, values, k, low, high, below_low, above_high, refinements
                )

            net.phase = "refinement"
            net.broadcast(REFINEMENT_REQUEST_BITS)
            refinements += 1
            buckets = self.num_buckets
            if self.recompute_buckets:
                buckets = exact_optimal_buckets(high - low + 1)
            grid = make_grid(low, high, buckets)
            counts = collect_histogram(
                net,
                values,
                grid,
                self.participation_mask(net),
                compressed=self.compressed_histograms,
            )
            inside = sum(counts)
            if below_low is None:
                assert above_high is not None
                below_low = num_nodes - above_high - inside
            above_high = num_nodes - below_low - inside

            target = k - below_low - 1  # 0-based rank inside the interval
            if not 0 <= target < inside:
                raise ProtocolError(
                    f"rank {k} not inside refinement interval [{low}, {high}]"
                )
            bucket, skipped = locate_bucket(counts, target)
            bucket_low, bucket_high = grid.bucket_bounds(bucket)
            if bucket_low == bucket_high:
                return self._finish(
                    net,
                    values,
                    quantile=bucket_low,
                    interval=(low, high),
                    interval_counts=(below_low, inside, above_high),
                    quantile_counts=(below_low + skipped, counts[bucket]),
                    refinements=refinements,
                )
            below_low += skipped
            above_high = num_nodes - below_low - counts[bucket]
            low, high = bucket_low, bucket_high

    def _finish(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        quantile: int,
        interval: tuple[int, int],
        interval_counts: tuple[int, int, int],
        quantile_counts: tuple[int, int],
        refinements: int,
    ) -> RoundOutcome:
        """Wrap up a descent that pinned ``quantile`` via a width-1 bucket.

        With interval tracking the nodes keep filtering against the last
        broadcast interval and no further traffic is needed; otherwise the
        quantile is broadcast and the filter collapses onto it.
        """
        if self.interval_tracking:
            below, inside, above = interval_counts
            self._low, self._high = interval
            self._anchor(net, values, RootCounters(l=below, e=inside, g=above))
            return RoundOutcome(quantile=quantile, refinements=refinements)
        less, equal = quantile_counts
        net.phase = "filter"
        net.broadcast(VALUE_BITS)
        counters = RootCounters(
            l=less, e=equal, g=self.population(net) - less - equal
        )
        self._collapse(quantile, None)
        self._anchor(net, values, counters)
        return RoundOutcome(
            quantile=quantile, refinements=refinements, filter_broadcast=True
        )

    def handover_state_bits(self) -> int:
        # Interval filter: one extra bound on top of the base family's
        # single filter value.
        return super().handover_state_bits() + VALUE_BITS
