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
    FilterQuantile,
    build_transitions,
    hint_bounds,
)
from repro.core.payloads import ValidationPayload
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome


class POS(FilterQuantile):
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
    hint_values = 2

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

    # -- rounds ---------------------------------------------------------------

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        merged = self._validate(net, values)
        hints_stale = self.consume_stale_hints()
        k = self.rank(net)
        if self.counters.is_valid(k):
            self.current_quantile = self._filter
            return RoundOutcome(quantile=self._filter)
        outcome = self._refine(net, values, merged, k, hints_stale)
        self.current_quantile = outcome.quantile
        return outcome

    # -- the filter -----------------------------------------------------------

    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter as an inclusive interval (a point for POS)."""
        if self._filter is None:
            raise ProtocolError("filter_bounds() called before initialize()")
        return self._filter, self._filter

    def _collapse(self, quantile: int, quantile_history: list[int] | None) -> None:
        self._filter = quantile

    # -- refinement -----------------------------------------------------------

    def _refine(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        validation: ValidationPayload | None,
        k: int,
        hints_stale: bool = False,
    ) -> RoundOutcome:
        assert self._filter is not None and self.counters is not None
        counters = self.counters
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
        labels = self._state  # every node's label against the last probe
        while True:
            inside = (num_nodes - (above_high or 0)) - (below_low or 0)
            if 0 < self.direct_request_limit and inside <= self.direct_request_limit:
                return self._direct_request(
                    net, values, k, low, high, below_low, above_high, refinements
                )

            candidate = (low + high) // 2
            net.phase = "refinement"
            net.broadcast(VALUE_BITS)  # refinement request: the candidate
            refinements += 1
            candidate_labels = self._labels(net, values, candidate, candidate)
            merged = net.convergecast(build_transitions(labels, candidate_labels))
            if merged is not None:
                counters.apply_validation(merged)
            labels = candidate_labels

            position = counters.position_of_rank(k)
            if position == EQ:
                # The candidate is the new quantile; every node saw it in the
                # last refinement broadcast, so no extra filter broadcast.
                self._filter = candidate
                self._state = candidate_labels
                return RoundOutcome(quantile=candidate, refinements=refinements)
            if position == LT:
                high = candidate - 1
                above_high = counters.e + counters.g
            else:
                low = candidate + 1
                below_low = counters.l + counters.e
            if low > high:
                raise ProtocolError("binary search exhausted without a quantile")
