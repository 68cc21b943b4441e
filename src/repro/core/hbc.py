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
    ContinuousQuantileAlgorithm,
    RootCounters,
    build_validation,
    classify_array,
    classify_interval,
    hint_bounds,
    shift_counter,
    tag_initialization,
)
from repro.core.cost_model import exact_optimal_buckets, rounded_optimal_buckets
from repro.core.histogram import BucketGrid, locate_bucket, make_grid
from repro.core.payloads import HistogramBatch, ValueSetPayload
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome


class HBC(ContinuousQuantileAlgorithm):
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
        self._counters: RootCounters | None = None
        self._state: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        k = self.rank(net)
        quantile, counters, _ = tag_initialization(
            net, values, k, participants=self.participating_sensors(net)
        )
        net.phase = "filter"
        net.broadcast(VALUE_BITS)  # filter dissemination
        self._set_interval(net, values, quantile, quantile, counters)
        self.current_quantile = quantile
        return RoundOutcome(quantile=quantile, filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if self._low is None or self._high is None:
            raise ProtocolError("update() called before initialize()")
        assert self._counters is not None and self._state is not None
        hints_stale = self.consume_stale_hints()
        k = self.rank(net)
        new_state = self._classify_all(net, values, self._low, self._high)
        contributions = build_validation(
            net, values, self._state, new_state, hint_values=1
        )
        net.phase = "validation"
        merged = net.convergecast(contributions)
        if merged is not None:
            self._counters.apply_validation(merged)
        self._state = new_state

        counters = self._counters
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

    # -- warm start (adaptive switching, Section 4.2 / DESIGN.md S18) ---------

    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter interval (collapses to a point after resets)."""
        if self._low is None or self._high is None:
            raise ProtocolError("filter_bounds() called before initialize()")
        return self._low, self._high

    def warm_start(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        quantile: int,
        counters: RootCounters,
    ) -> None:
        """Adopt state mid-stream; see :meth:`repro.baselines.POS.warm_start`."""
        self._set_interval(net, values, quantile, quantile, counters)
        self.current_quantile = quantile

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
            counts = self._collect_histogram(net, values, grid)
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
            counters = RootCounters(l=below, e=inside, g=above)
            self._set_interval(net, values, interval[0], interval[1], counters)
            return RoundOutcome(quantile=quantile, refinements=refinements)
        less, equal = quantile_counts
        net.phase = "filter"
        net.broadcast(VALUE_BITS)
        counters = RootCounters(
            l=less, e=equal, g=self.population(net) - less - equal
        )
        self._set_interval(net, values, quantile, quantile, counters)
        return RoundOutcome(
            quantile=quantile, refinements=refinements, filter_broadcast=True
        )

    def _direct_request(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        k: int,
        low: int,
        high: int,
        below_low: int | None,
        above_high: int | None,
        refinements: int,
    ) -> RoundOutcome:
        """Raw-value shortcut; always ends with a filter broadcast."""
        num_nodes = self.population(net)
        net.phase = "refinement"
        net.broadcast(2 * VALUE_BITS)
        contributions = {
            vertex: ValueSetPayload(values=(int(values[vertex]),))
            for vertex in self.participating_sensors(net)
            if low <= int(values[vertex]) <= high
        }
        merged = net.convergecast(contributions)
        received = merged.values if merged is not None else ()
        if below_low is not None:
            index = k - below_low - 1
        else:
            assert above_high is not None
            at_most_high = num_nodes - above_high
            index = len(received) - (at_most_high - k + 1)
        if not 0 <= index < len(received):
            raise ProtocolError(
                f"direct request returned {len(received)} values, offset {index}"
            )
        quantile = received[index]

        equal = sum(1 for value in received if value == quantile)
        if below_low is not None:
            less = below_low + sum(1 for value in received if value < quantile)
        else:
            at_most_high = num_nodes - above_high  # type: ignore[operator]
            less = at_most_high - sum(1 for value in received if value >= quantile)
        counters = RootCounters(l=less, e=equal, g=num_nodes - less - equal)

        net.phase = "filter"
        net.broadcast(VALUE_BITS)  # filter broadcast resets the interval
        self._set_interval(net, values, quantile, quantile, counters)
        return RoundOutcome(
            quantile=quantile,
            refinements=refinements,
            direct_request=True,
            filter_broadcast=True,
        )

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self._mask is not None:
            self._mask[vertex] = False
        if self._counters is None or self._state is None:
            return
        shift_counter(self._counters, int(self._state[vertex]), -1)
        self._state[vertex] = EQ

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self._mask is not None:
            self._mask[vertex] = True
        if self._low is None or self._high is None:
            return
        assert self._counters is not None and self._state is not None
        label = classify_interval(int(values[vertex]), self._low, self._high)
        shift_counter(self._counters, label, 1)
        self._state[vertex] = label

    def handover_state_bits(self) -> int:
        # Interval filter: one extra bound on top of the base family's
        # single filter value.
        return super().handover_state_bits() + VALUE_BITS

    # -- node-side helpers ----------------------------------------------------

    def _collect_histogram(
        self, net: TreeNetwork, values: np.ndarray, grid: BucketGrid
    ) -> tuple[int, ...]:
        if self._mask is None:
            self._mask = self.participation_mask(net)
        inside = self._mask & (values >= grid.low) & (values <= grid.high)
        participants = np.flatnonzero(inside)
        merged = net.convergecast(
            HistogramBatch(
                participants,
                grid.bucket_of_array(values[participants]),
                grid.num_buckets,
                compressed=self.compressed_histograms,
            )
        )
        if merged is None:
            return (0,) * grid.num_buckets
        return merged.counts

    def _classify_all(
        self, net: TreeNetwork, values: np.ndarray, low: int, high: int
    ) -> np.ndarray:
        if self._mask is None:
            self._mask = self.participation_mask(net)
        return classify_array(values, low, high, self._mask)

    def _set_interval(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        low: int,
        high: int,
        counters: RootCounters,
    ) -> None:
        self._low, self._high = low, high
        self._counters = counters
        self._state = self._classify_all(net, values, low, high)

