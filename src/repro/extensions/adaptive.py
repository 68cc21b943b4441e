"""Adaptive algorithm switching (the future work of Section 4.2).

The paper observes: "Due to the similar structure of POS, HBC and IQ it is
possible to switch between these approaches without reinitializing the
network and always use the best algorithm within a given environment,
however we leave heuristics to select the best solution for future
research."  This module supplies such a heuristic.

The switcher runs one *active* algorithm and monitors its per-round radio
cost (total bits on air, which the base station can estimate from its own
traffic plus the cost model).  An explore/exploit schedule keeps the
estimates of the inactive candidates fresh: every ``probe_every`` rounds the
switcher hands the query to the next candidate for ``probe_rounds`` rounds,
then settles on the cheapest exponentially-weighted estimate.

A switch is a first-class protocol step with real cost:

1. the root broadcasts the new algorithm id plus the current quantile (one
   filter broadcast, so every node re-anchors to the same point filter);
2. nodes whose membership changed between the old filter (a point for
   POS/IQ, the tracked interval for HBC) and the new point filter answer
   with one POS-style counter convergecast, which re-derives exact
   ``(l, e, g)`` counters for the adopted filter;
3. the incoming algorithm is warm-started from that state — no TAG
   re-initialization happens.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro.constants import VALUE_BITS
from repro.core.base import (
    ContinuousQuantileAlgorithm,
    FilterQuantile,
    RootCounters,
    build_transitions,
    classify_array,
    sensor_mask,
)
from repro.core.hbc import HBC
from repro.core.iq import IQ
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import QuerySpec, RoundOutcome

#: Builds one switchable candidate: a member of the filter family.
CandidateFactory = Callable[[QuerySpec], FilterQuantile]


def default_candidates() -> list[CandidateFactory]:
    """The paper's switch set: the heuristic and the cost-model algorithm."""
    return [IQ, HBC]


class AdaptiveQuantile(ContinuousQuantileAlgorithm):
    """Runs the cheapest of several continuous algorithms, switching live.

    Args:
        spec: the quantile query.
        candidates: algorithm factories (default: IQ and HBC).  Candidate 0
            runs first.
        probe_every: rounds between exploration probes.
        probe_rounds: length of one exploration probe.
        smoothing: EWMA factor for the per-candidate cost estimates.
    """

    name = "ADAPT"

    def __init__(
        self,
        spec: QuerySpec,
        candidates: Sequence[CandidateFactory] | None = None,
        probe_every: int = 25,
        probe_rounds: int = 5,
        smoothing: float = 0.3,
    ) -> None:
        super().__init__(spec)
        factories = list(candidates) if candidates else default_candidates()
        if len(factories) < 2:
            raise ConfigurationError("adaptive switching needs >= 2 candidates")
        if probe_every <= probe_rounds:
            raise ConfigurationError("probe_every must exceed probe_rounds")
        if not 0 < smoothing <= 1:
            raise ConfigurationError(f"smoothing must be in (0, 1], got {smoothing}")
        self.candidates = [factory(spec) for factory in factories]
        for candidate in self.candidates:
            if not isinstance(candidate, FilterQuantile):
                raise ConfigurationError(
                    f"{candidate.name} cannot warm-start: candidates must be "
                    "FilterQuantile algorithms (POS, HBC, IQ)"
                )
        self.probe_every = probe_every
        self.probe_rounds = probe_rounds
        self.smoothing = smoothing

        self.active_index = 0
        self.switches = 0
        self._round = 0
        self._probe_target: int | None = None
        self._probe_end = 0
        self._cost_estimate: list[float | None] = [None] * len(self.candidates)
        self._history: deque[int] = deque(maxlen=12)
        self._last_values: np.ndarray | None = None

    @property
    def active(self) -> FilterQuantile:
        """The algorithm currently answering the query."""
        return self.candidates[self.active_index]

    # -- rounds ----------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        before = self._total_bits(net)
        outcome = self.active.initialize(net, values)
        # Initialization (TAG collection) is not representative steady-state
        # cost, so it does not seed the estimate.
        del before
        self._history.append(outcome.quantile)
        self.current_quantile = outcome.quantile
        self._round = 1
        self._last_values = np.array(values, dtype=np.int64)
        return outcome

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        # A switch must happen against the *previous* round's measurements:
        # the outgoing counters describe them, and every node still holds
        # its last reading, so the re-anchor exchange is well-defined.
        self._maybe_schedule_probe(net)

        before = self._total_bits(net)
        outcome = self.active.update(net, values)
        cost = float(self._total_bits(net) - before)
        self._observe_cost(self.active_index, cost)

        self._history.append(outcome.quantile)
        self.current_quantile = outcome.quantile
        self._round += 1
        self._last_values = np.array(values, dtype=np.int64)

        if self._probe_target is not None and self._round >= self._probe_end:
            self._probe_target = None
            self._settle(net)
        return outcome

    # -- switching machinery -----------------------------------------------------

    def _maybe_schedule_probe(self, net: TreeNetwork) -> None:
        if self._probe_target is not None:
            return
        if self._round % self.probe_every != 0 or self._round == 0:
            return
        target = self._least_known_candidate()
        if target == self.active_index:
            return
        self._probe_target = target
        self._probe_end = self._round + self.probe_rounds
        self._switch_to(net, target)

    def _settle(self, net: TreeNetwork) -> None:
        """After a probe, run whichever candidate currently looks cheapest."""
        known = [
            (estimate, index)
            for index, estimate in enumerate(self._cost_estimate)
            if estimate is not None
        ]
        if not known:
            return
        _, best = min(known)
        if best != self.active_index:
            self._switch_to(net, best)

    def _least_known_candidate(self) -> int:
        """Prefer candidates without any estimate, then the stalest probe."""
        for index, estimate in enumerate(self._cost_estimate):
            if estimate is None and index != self.active_index:
                return index
        return (self.active_index + 1) % len(self.candidates)

    def _observe_cost(self, index: int, cost: float) -> None:
        current = self._cost_estimate[index]
        if current is None:
            self._cost_estimate[index] = cost
        else:
            self._cost_estimate[index] = (
                self.smoothing * cost + (1 - self.smoothing) * current
            )

    def _switch_to(self, net: TreeNetwork, target: int) -> None:
        """The two-step switch protocol described in the module docstring."""
        outgoing = self.active
        quantile = outgoing.current_quantile
        values = self._last_values
        if quantile is None or values is None:
            raise ProtocolError("cannot switch before the first quantile")

        old_low, old_high = outgoing.filter_bounds()
        counters = self._reanchor(net, values, old_low, old_high, quantile)
        self.candidates[target].warm_start(
            net, values, quantile, counters, quantile_history=list(self._history)
        )
        self.active_index = target
        self.switches += 1

    def _reanchor(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        old_low: int,
        old_high: int,
        quantile: int,
    ) -> RootCounters:
        """Broadcast the adopted point filter and re-derive exact counters.

        Starting from the outgoing algorithm's counters (relative to its
        filter interval), the usual transition-counter update re-anchors
        them to the point filter ``quantile`` — only nodes whose membership
        label changes transmit.
        """
        outgoing_counters = self.active.counters
        if outgoing_counters is None:
            raise ProtocolError("outgoing algorithm has no root counters")
        net.phase = "switch"
        net.broadcast(2 * VALUE_BITS)  # switch announcement: algo id + filter
        # Every sensor re-labels its value (truncated like ``int()``).
        measured = np.asarray(values).astype(np.int64)
        sensors = sensor_mask(net)
        merged = net.convergecast(
            build_transitions(
                classify_array(measured, old_low, old_high, sensors),
                classify_array(measured, quantile, None, sensors),
            )
        )
        counters = RootCounters(
            l=outgoing_counters.l, e=outgoing_counters.e, g=outgoing_counters.g
        )
        if merged is not None:
            counters.apply_validation(merged)
        return counters

    @staticmethod
    def _total_bits(net: TreeNetwork) -> int:
        return int(net.ledger.bits_sent.sum())
