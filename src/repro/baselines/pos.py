"""POS: binary-search-based continuous quantile queries (Cox et al. [9]).

Reviewed in Section 3.2 of the paper.  Every round starts with a validation
convergecast against the last quantile (the *filter*); if the rank counters
show the filter is no longer the k-th value, the root binary-searches the
hint-bounded refinement interval, broadcasting one candidate per iteration
and collecting transition counters.  When the candidates remaining in the
refinement interval fit into a single message, POS requests the raw values
directly and finishes with a filter broadcast (Section 3.2, improvements).

Rank bookkeeping during the search: the root maintains, where exactly known,
the number of measurements strictly below the interval's lower bound
(``below_low``) and strictly above its upper bound (``above_high``).  One of
the two is always known exactly — the bound adjacent to the old filter at
the start, and every probed candidate afterwards — which is sufficient to
index into a direct-request response from the known side.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VALUE_BITS, VALUES_PER_MESSAGE
from repro.core.base import (
    EQ,
    GT,
    LT,
    ContinuousQuantileAlgorithm,
    RootCounters,
    build_transitions,
    build_validation,
    classify,
    classify_array,
    hint_bounds,
    shift_counter,
    tag_initialization,
)
from repro.core.payloads import ValidationPayload, ValueSetPayload
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome


class POS(ContinuousQuantileAlgorithm):
    """The POS continuous median/quantile algorithm.

    Args:
        spec: the quantile query and measurement universe.
        direct_request_limit: switch to a raw-value request when at most
            this many candidates remain (default: the 64 two-byte values
            that fit one 128-byte payload, Section 5.1.6).  ``0`` disables
            the shortcut.
        use_hints: bound the binary search with the validation hints
            (Section 3.2's improvement).  Disabling reproduces plain POS,
            whose refinement interval stretches to the universe bounds.
    """

    name = "POS"

    def __init__(
        self,
        spec: QuerySpec,
        direct_request_limit: int = VALUES_PER_MESSAGE,
        use_hints: bool = True,
    ) -> None:
        super().__init__(spec)
        self.direct_request_limit = direct_request_limit
        self.use_hints = use_hints
        self._filter: int | None = None
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
        net.broadcast(VALUE_BITS)  # filter dissemination (Section 3.2)
        self._filter = quantile
        self._counters = counters
        self._state = self._classify_all(net, values, quantile)
        self.current_quantile = quantile
        return RoundOutcome(quantile=quantile, filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if self._filter is None or self._counters is None or self._state is None:
            raise ProtocolError("update() called before initialize()")
        hints_stale = self.consume_stale_hints()
        k = self.rank(net)
        new_state = self._classify_all(net, values, self._filter)
        contributions = build_validation(
            net, values, self._state, new_state, hint_values=2
        )
        net.phase = "validation"
        merged = net.convergecast(contributions)
        if merged is not None:
            self._counters.apply_validation(merged)
        self._state = new_state

        if self._counters.is_valid(k):
            self.current_quantile = self._filter
            return RoundOutcome(quantile=self._filter)
        outcome = self._refine(net, values, merged, k, hints_stale)
        self.current_quantile = outcome.quantile
        return outcome

    # -- warm start (adaptive switching, Section 4.2 / DESIGN.md S18) ---------

    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter as an inclusive interval (a point for POS)."""
        if self._filter is None:
            raise ProtocolError("filter_bounds() called before initialize()")
        return self._filter, self._filter

    def warm_start(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        quantile: int,
        counters: RootCounters,
    ) -> None:
        """Adopt state mid-stream instead of running an initialization round.

        The caller (the adaptive switcher) is responsible for having
        broadcast ``quantile`` as the new network-wide filter and for
        providing counters that are exact relative to it.
        """
        self._filter = quantile
        self._counters = counters
        self._state = self._classify_all(net, values, quantile)
        self.current_quantile = quantile

    # -- refinement -----------------------------------------------------------

    def _refine(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        validation: ValidationPayload | None,
        k: int,
        hints_stale: bool = False,
    ) -> RoundOutcome:
        assert self._filter is not None and self._counters is not None
        counters = self._counters
        num_nodes = self.population(net)
        direction = counters.position_of_rank(k)
        if self.use_hints and not hints_stale:
            hint_low, hint_high = hint_bounds(
                validation, self._filter, self._filter, self.spec, symmetric=False
            )
        else:
            hint_low, hint_high = self.spec.r_min, self.spec.r_max
        below_low: int | None
        above_high: int | None
        if direction == GT:
            low, high = self._filter + 1, hint_high
            below_low, above_high = counters.l + counters.e, None
        else:
            low, high = hint_low, self._filter - 1
            below_low, above_high = None, counters.e + counters.g
        if low > high:
            raise ProtocolError("empty refinement interval despite invalid filter")

        refinements = 0
        anchor = self._filter
        while True:
            inside = (num_nodes - (above_high or 0)) - (below_low or 0)
            if 0 < self.direct_request_limit and inside <= self.direct_request_limit:
                quantile = self._direct_request(
                    net, values, low, high, below_low, above_high, k
                )
                net.phase = "filter"
                net.broadcast(VALUE_BITS)  # final filter broadcast
                self._filter = quantile
                self._state = self._classify_all(net, values, quantile)
                return RoundOutcome(
                    quantile=quantile,
                    refinements=refinements,
                    direct_request=True,
                    filter_broadcast=True,
                )

            candidate = (low + high) // 2
            net.phase = "refinement"
            net.broadcast(VALUE_BITS)  # refinement request: the candidate
            refinements += 1
            candidate_state = self._classify_all(net, values, candidate)
            contributions = build_transitions(
                self._classify_all(net, values, anchor), candidate_state
            )
            merged = net.convergecast(contributions)
            if merged is not None:
                counters.apply_validation(merged)
            anchor = candidate

            position = counters.position_of_rank(k)
            if position == EQ:
                # The candidate is the new quantile; every node saw it in the
                # last refinement broadcast, so no extra filter broadcast.
                self._filter = candidate
                self._state = candidate_state
                return RoundOutcome(quantile=candidate, refinements=refinements)
            if position == LT:
                high = candidate - 1
                above_high = counters.e + counters.g
            else:
                low = candidate + 1
                below_low = counters.l + counters.e
            if low > high:
                raise ProtocolError("binary search exhausted without a quantile")

    def _direct_request(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        low: int,
        high: int,
        below_low: int | None,
        above_high: int | None,
        k: int,
    ) -> int:
        """Request all values in ``[low, high]`` and pick the quantile centrally.

        Exactly one of ``below_low`` / ``above_high`` may be unknown; the
        quantile's offset inside the response is computed from the known
        side.  The new quantile is guaranteed to lie in ``[low, high]``, so
        all of its duplicates are in the response and the counters can be
        re-seeded exactly.
        """
        num_nodes = self.population(net)
        net.phase = "refinement"
        net.broadcast(2 * VALUE_BITS)  # request: the interval bounds
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
                f"direct request returned {len(received)} values but rank "
                f"offset is {index}"
            )
        quantile = received[index]

        equal = sum(1 for value in received if value == quantile)
        if below_low is not None:
            less = below_low + sum(1 for value in received if value < quantile)
        else:
            at_most_high = num_nodes - above_high  # type: ignore[operator]
            less = at_most_high - sum(1 for value in received if value >= quantile)
        self._counters = RootCounters(
            l=less, e=equal, g=num_nodes - less - equal
        )
        return quantile

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
        if self._filter is None or self._counters is None or self._state is None:
            return
        label = classify(int(values[vertex]), self._filter)
        shift_counter(self._counters, label, 1)
        self._state[vertex] = label

    # -- helpers --------------------------------------------------------------

    def _classify_all(
        self, net: TreeNetwork, values: np.ndarray, filter_value: int
    ) -> np.ndarray:
        if self._mask is None:
            self._mask = self.participation_mask(net)
        return classify_array(values, filter_value, None, self._mask)
