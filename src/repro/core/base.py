"""Common machinery for continuous quantile algorithms.

POS, HBC and IQ all share the same skeleton (Sections 3.2, 4.1, 4.2):

1. an initialization round that computes the first quantile with TAG-style
   aggregation and seeds the root's ``(l, e, g)`` counters;
2. a validation convergecast at the start of every round, carrying interval
   transition counters (and hints, and for IQ the multiset ``A``);
3. zero or more refinement exchanges;
4. an optional filter broadcast.

This module provides the counter bookkeeping, the validation construction,
the shared TAG initialization and the abstract driver interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.constants import VALUE_BITS
from repro.core.payloads import ValidationBatch, ValidationPayload, ValueSetPayload
from repro.errors import MembershipError, ProtocolError
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import quantile_rank
from repro.types import QuerySpec, RoundOutcome

#: Interval labels relative to a filter value: below, equal, above.
LT, EQ, GT = -1, 0, 1


def classify(value: int, filter_value: int) -> int:
    """Which filter interval (``LT``/``EQ``/``GT``) ``value`` falls into."""
    if value < filter_value:
        return LT
    if value > filter_value:
        return GT
    return EQ


def classify_interval(value: int, low: int, high: int) -> int:
    """Like :func:`classify` but against an interval filter ``[low, high]``.

    Used by HBC's Section 4.1.2 extension, where nodes filter against the
    bounds of the last refinement request instead of a single value.
    """
    if value < low:
        return LT
    if value > high:
        return GT
    return EQ


def sensor_mask(net: TreeNetwork) -> np.ndarray:
    """Boolean mask over vertices selecting the measuring nodes."""
    mask = np.ones(net.tree.num_vertices, dtype=bool)
    mask[net.tree.root] = False
    for relay in net.tree.relays:
        mask[relay] = False
    return mask


def classify_array(
    values: np.ndarray, low: int, high: int | None, mask: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`classify_interval` over all vertices.

    ``high=None`` means a point filter at ``low``.  Non-sensor vertices
    (root, relays) are pinned to ``EQ`` so their entries never register as
    state changes.
    """
    upper = low if high is None else high
    state = np.zeros(len(values), dtype=np.int8)
    state[values < low] = LT
    state[values > upper] = GT
    state[~mask] = EQ
    return state


@dataclass
class RootCounters:
    """The root's state: counts of values below/at/above the filter.

    ``l``/``e``/``g`` count current measurements ``< f``, ``== f`` and
    ``> f`` where ``f`` is the current filter value (or interval).  The root
    updates them from validation counters and re-derives them after every
    refinement.
    """

    l: int
    e: int
    g: int

    @property
    def total(self) -> int:
        """Total number of accounted measurements."""
        return self.l + self.e + self.g

    def apply_validation(self, payload: ValidationPayload) -> None:
        """Fold a merged validation payload into the counters (Section 3.2)."""
        total = self.total
        self.l += payload.into_lt - payload.outof_lt
        self.g += payload.into_gt - payload.outof_gt
        self.e = total - self.l - self.g
        if min(self.l, self.e, self.g) < 0:
            raise ProtocolError(
                f"counter update produced negative counts: l={self.l} "
                f"e={self.e} g={self.g}"
            )

    def position_of_rank(self, k: int) -> int:
        """Where rank ``k`` sits relative to the filter: ``LT``/``EQ``/``GT``."""
        if not 1 <= k <= self.total:
            raise ProtocolError(f"rank {k} out of range for {self.total} values")
        if self.l >= k:
            return LT
        if self.l + self.e >= k:
            return EQ
        return GT

    def is_valid(self, k: int) -> bool:
        """True iff the filter value is still the exact k-th value."""
        return self.position_of_rank(k) == EQ


def shift_counter(counters: RootCounters, label: int, delta: int) -> None:
    """Move ``delta`` measurements into/out of the ``label`` interval.

    Repair-time membership patching: when a node leaves or rejoins the
    query, the root moves its last-known label out of (or its current label
    into) the ``(l, e, g)`` counters instead of re-initializing.
    """
    if label == LT:
        counters.l += delta
    elif label == GT:
        counters.g += delta
    else:
        counters.e += delta
    if min(counters.l, counters.e, counters.g) < 0:
        raise ProtocolError(
            f"membership patch produced negative counts: l={counters.l} "
            f"e={counters.e} g={counters.g}"
        )


def build_validation(
    net: TreeNetwork,
    values: np.ndarray,
    old_state: np.ndarray,
    new_state: np.ndarray,
    hint_values: int,
) -> ValidationBatch:
    """Per-node validation contributions for one round.

    Args:
        net: the network the contributions travel on.
        values: current measurements, indexed by vertex.
        old_state: per-vertex interval label from the previous round.
        new_state: per-vertex interval label for the current value.
        hint_values: how many hint values the payload is charged for
            (2 for POS's two-sided hints, 1 for the max-difference variant).

    A node contributes iff its interval label changed; the contribution
    carries the transition counters and the node's current value as a hint
    (``astype`` truncates toward zero, like ``int()`` of one value).
    Non-sensor vertices are pinned to ``EQ`` by :func:`classify_array`, so
    scanning the changed entries alone suffices.
    """
    changed = np.flatnonzero(old_state != new_state)
    return ValidationBatch(
        changed,
        old_state[changed],
        new_state[changed],
        value=values[changed].astype(np.int64),
        hinted=np.ones(len(changed), dtype=bool),
        hint_values=hint_values,
    )


def build_transitions(old_state: np.ndarray, new_state: np.ndarray) -> ValidationBatch:
    """Counter-only validation contributions: no hints, no values.

    The refinement and re-anchoring exchanges only need the root's
    ``(l, e, g)`` counters to follow the nodes whose label changed.
    """
    changed = np.flatnonzero(old_state != new_state)
    return ValidationBatch(changed, old_state[changed], new_state[changed])


def hint_bounds(
    payload: ValidationPayload | None,
    filter_low: int,
    filter_high: int,
    spec: QuerySpec,
    symmetric: bool,
) -> tuple[int, int]:
    """Refinement bounds the root may derive from validation hints.

    Returns ``(low, high)`` such that the new quantile is guaranteed to lie
    in ``[low, high]``.  Without any hint the universe bounds apply.  With
    ``symmetric`` (the Section 5.1.6 max-difference variant used by HBC and
    IQ) a single transmitted value — the maximum absolute difference to the
    old filter — yields the interval ``[f_lo - d, f_hi + d]``.
    """
    if payload is None or not payload.has_hint:
        return spec.r_min, spec.r_max
    assert payload.hint_min is not None and payload.hint_max is not None
    if symmetric:
        diff = max(filter_low - payload.hint_min, payload.hint_max - filter_high, 0)
        low, high = filter_low - diff, filter_high + diff
    else:
        low = min(payload.hint_min, filter_low)
        high = max(payload.hint_max, filter_high)
    return max(low, spec.r_min), min(high, spec.r_max)


class ContinuousQuantileAlgorithm(ABC):
    """Driver interface for continuous quantile algorithms.

    Subclasses implement :meth:`initialize` (round 0) and :meth:`update`
    (rounds 1..T-1).  All radio traffic must flow through the
    :class:`~repro.sim.TreeNetwork` primitives so that energy accounting is
    complete.  ``values`` arrays are indexed by vertex id; the entry at the
    root index is ignored.
    """

    #: Short identifier used in result tables ("TAG", "POS", "HBC", ...).
    name: str = "?"

    #: Whether every round's answer must equal the centralized oracle.
    #: Approximate algorithms (the sketch family) set this to False; the
    #: runner then records their rank error instead of asserting equality.
    exact: bool = True

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self.current_quantile: int | None = None
        #: Sensors the root considers outside the query (dead, in a
        #: transient outage, or cut off the root).  Tree repair maintains
        #: this via :meth:`detach` / :meth:`rejoin`; the rank ``k`` follows
        #: the shrunken population (Definition 2.1 over the nodes that can
        #: still report).
        self._detached_vertices: set[int] = set()
        #: Membership changed since the last completed round — validation
        #: hints cannot bound the quantile's move (see
        #: :meth:`consume_stale_hints`).
        self._hints_stale = False

    def population(self, net: TreeNetwork) -> int:
        """Number of sensors currently participating in the query."""
        return net.num_sensor_nodes - len(self._detached_vertices)

    def participating_sensors(self, net: TreeNetwork) -> tuple[int, ...]:
        """Sensor nodes currently participating in the query."""
        if not self._detached_vertices:
            return net.tree.sensor_nodes
        return tuple(
            v for v in net.tree.sensor_nodes if v not in self._detached_vertices
        )

    def participation_mask(self, net: TreeNetwork) -> np.ndarray:
        """Like :func:`sensor_mask` but with detached vertices cleared."""
        mask = sensor_mask(net)
        for vertex in self._detached_vertices:
            mask[vertex] = False
        return mask

    def rank(self, net: TreeNetwork) -> int:
        """The queried rank ``k`` for the current participating population."""
        return quantile_rank(self.population(net), self.spec.phi)

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        """Root-side bookkeeping when ``vertex`` leaves the query.

        Called by the repair layer when a node dies, goes into a transient
        outage, or is cut off the root.  The base implementation shrinks the
        tracked population so ``k`` keeps following Definition 2.1; exact
        algorithms additionally patch their counters/state in overrides
        (which must call ``super().detach(...)`` first).

        The population may legally reach zero: under sustained transient
        churn even the last participating sensor can leave.  The query then
        holds no answerable rank — callers (the fault driver) must notice
        ``population(net) == 0`` and degrade instead of running a round.
        """
        if vertex in self._detached_vertices:
            raise MembershipError(
                f"cannot detach vertex {vertex}: already detached "
                f"(population {self.population(net)} of "
                f"{net.num_sensor_nodes})"
            )
        self._detached_vertices.add(vertex)
        self._hints_stale = True

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        """Root-side bookkeeping when ``vertex`` rejoins the query.

        The inverse of :meth:`detach`: the node recovered from a transient
        outage (or was re-attached to the tree) and has been re-synchronized
        with the current filter, so its value at ``values[vertex]`` counts
        again.
        """
        if vertex not in self._detached_vertices:
            raise MembershipError(
                f"cannot rejoin vertex {vertex}: never detached "
                f"(population {self.population(net)} of "
                f"{net.num_sensor_nodes})"
            )
        self._detached_vertices.discard(vertex)
        self._hints_stale = True

    def handover(self, net: TreeNetwork, old_root: int, new_root: int) -> int:
        """Migrate the root-side query state onto a successor sink (fail-over).

        Called by the fail-over controller *before* the tree is re-rooted.
        ``new_root`` is the sensor promoted to sink: its own measurement
        leaves the query exactly like a :meth:`detach` (overrides patch
        their counters through that same path), but it is then removed from
        the detached set again — once the tree is re-rooted the successor
        is excluded structurally, like any sink.  ``old_root`` becomes a
        permanently detached ex-vertex: it never contributed a value, so no
        counters move for it.  The net population therefore shrinks by
        exactly one (the successor's value), and hints go stale — a
        membership change without a value transition, so refinement falls
        back to universe bounds for one round (see
        :meth:`consume_stale_hints`).

        Returns the size [bits] of the root-side state the successor must
        be seeded with (see :meth:`handover_state_bits`); the fail-over
        controller charges one broadcast of this size under the
        ``failover`` ledger phase.
        """
        self.detach(net, new_root)
        self._detached_vertices.discard(new_root)
        self._detached_vertices.add(old_root)
        return self.handover_state_bits()

    def handover_state_bits(self) -> int:
        """Serialized size [bits] of the state a successor sink inherits.

        The base family's root state is the filter value and the three rank
        counters ``(l, e, g)``.  Algorithms carrying more root-side state
        (interval filters, ξ history, sketches, window cells) override this
        and add their share on top of ``super().handover_state_bits()``.
        """
        return 4 * VALUE_BITS

    def reset_participation(
        self, net: TreeNetwork, detached: "set[int] | frozenset[int]" = frozenset()
    ) -> None:
        """Re-plant the query on a partially reachable network.

        Used right after a re-initialization: ``detached`` is the set of
        sensors the fresh query does not cover (unreachable or down).
        """
        detached = set(detached)
        if net.num_sensor_nodes - len(detached) < 1:
            raise MembershipError(
                f"cannot reset participation onto an empty population "
                f"({len(detached)} of {net.num_sensor_nodes} sensors "
                f"detached)"
            )
        self._detached_vertices = detached
        # The caller re-initializes next, which re-seeds exact counters.
        self._hints_stale = False

    def consume_stale_hints(self) -> bool:
        """Whether validation hints may under-bound this round's quantile move.

        Hints bound the new quantile only when the filter was invalidated by
        *value transitions*: a node that crosses the filter reports its value,
        so the k-th value cannot have moved past the extreme reported hint.
        A membership change (:meth:`detach` / :meth:`rejoin`) shifts the rank
        counters without any node transitioning, so the new quantile can lie
        outside every hint — refinement must fall back to the universe bounds
        for one round.  Consuming clears the flag: once a round completes, the
        filter is exact for the current membership and hints are trustworthy
        again.
        """
        stale = self._hints_stale
        self._hints_stale = False
        return stale

    @abstractmethod
    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        """Run the initialization round and return its outcome."""

    @abstractmethod
    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        """Run one continuous update round and return its outcome."""


def tag_initialization(
    net: TreeNetwork,
    values: np.ndarray,
    k: int,
    participants: tuple[int, ...] | None = None,
) -> tuple[int, RootCounters, tuple[int, ...]]:
    """TAG-style first round shared by POS, HBC and IQ (Sections 3.2, 4.2.1).

    The root disseminates ``k`` (one broadcast), then every node's value is
    aggregated up the tree, with intermediate vertices forwarding only the
    ``k`` smallest values of their subtree (plus ties of the k-th, so the
    root can count duplicates of the quantile exactly).

    Returns the quantile, the seeded root counters and the ascending tuple
    of the ``k`` smallest values (IQ uses it to initialize Ξ).

    ``participants`` restricts the collection to the sensors currently in
    the query (defaults to all of them); the ``g`` counter is seeded from
    their count so it stays consistent under churn/outages.
    """
    if participants is None:
        participants = net.tree.sensor_nodes
    population = len(participants)
    net.phase = "initialization"
    net.broadcast(VALUE_BITS)  # query dissemination: k
    contributions = {
        vertex: ValueSetPayload(values=(int(values[vertex]),), keep=k)
        for vertex in participants
    }
    merged = net.convergecast(contributions)
    if merged is None or len(merged.values) < k:
        raise ProtocolError("TAG initialization did not deliver k values")
    smallest = merged.values
    quantile = smallest[k - 1]
    # ValueSetPayload merges keep the tuple ascending, so the rank splits
    # fall out of two binary searches instead of two linear scans.
    less = bisect_left(smallest, quantile)
    equal = bisect_right(smallest, quantile) - less
    counters = RootCounters(l=less, e=equal, g=population - less - equal)
    return quantile, counters, smallest
