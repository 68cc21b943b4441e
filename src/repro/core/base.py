"""Common machinery for continuous quantile algorithms.

POS, HBC and IQ all share the same skeleton (Sections 3.2, 4.1, 4.2):

1. an initialization round that computes the first quantile with TAG-style
   aggregation and seeds the root's ``(l, e, g)`` counters;
2. a validation convergecast at the start of every round, carrying interval
   transition counters (and hints, and for IQ the multiset ``A``);
3. zero or more refinement exchanges;
4. an optional filter broadcast.

This module provides the counter bookkeeping, the validation construction,
the shared TAG initialization, the abstract driver interface with its
participation mask, the filter family's base :class:`FilterQuantile`, and
one helper per request kind: :func:`request_values` (the only builder of
value-set contributions), :func:`direct_request` and
:func:`collect_histogram` (the only builder of histogram contributions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import VALUE_BITS
from repro.core.histogram import BucketGrid
from repro.core.payloads import (
    HistogramBatch,
    ValidationBatch,
    ValidationPayload,
    ValueSetBatch,
)
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
    in_band: np.ndarray | None = None,
) -> ValidationBatch:
    """Per-node validation contributions for one round.

    Args:
        net: the network the contributions travel on.
        values: current measurements, indexed by vertex.
        old_state: per-vertex interval label from the previous round.
        new_state: per-vertex interval label for the current value.
        hint_values: how many hint values the payload is charged for
            (2 for POS's two-sided hints, 1 for the max-difference variant).
        in_band: per-vertex mask of the nodes whose value rides in IQ's
            multiset ``A`` (``None``: nobody's).

    A node contributes iff its interval label changed or it is in band; a
    changed node carries the transition counters and its current value as a
    hint (``astype`` truncates toward zero, like ``int()`` of one value), an
    in-band one its value in ``A``.  Non-sensor vertices are pinned to
    ``EQ`` by :func:`classify_array`, so scanning the changed entries alone
    suffices.
    """
    changed = old_state != new_state
    rows = np.flatnonzero(changed if in_band is None else changed | in_band)
    return ValidationBatch(
        rows,
        old_state[rows],
        new_state[rows],
        value=values[rows].astype(np.int64),
        hinted=changed[rows],
        in_band=None if in_band is None else in_band[rows],
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
        #: Cached :meth:`participation_mask`; ``None`` until first asked.
        self._mask: np.ndarray | None = None

    def population(self, net: TreeNetwork) -> int:
        """Number of sensors currently participating in the query."""
        return net.num_sensor_nodes - len(self._detached_vertices)

    def participating_sensors(self, net: TreeNetwork) -> tuple[int, ...]:
        """Sensor nodes currently participating in the query, ascending."""
        if not self._detached_vertices:
            return net.tree.sensor_nodes
        return tuple(np.flatnonzero(self.participation_mask(net)).tolist())

    def participation_mask(self, net: TreeNetwork) -> np.ndarray:
        """Like :func:`sensor_mask` but with detached vertices cleared.

        Built once and cached: :meth:`detach` and :meth:`rejoin` keep it in
        step and :meth:`reset_participation` drops it, so it always equals
        a fresh build.  Callers read the returned array and never write it.
        """
        if self._mask is None:
            mask = sensor_mask(net)
            for vertex in self._detached_vertices:
                mask[vertex] = False
            self._mask = mask
        return self._mask

    def rank(self, net: TreeNetwork) -> int:
        """The queried rank ``k`` for the current participating population."""
        return quantile_rank(self.population(net), self.spec.phi)

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        """Root-side bookkeeping when ``vertex`` leaves the query.

        Called by the repair layer when a node dies, goes into a transient
        outage, or is cut off the root.  The base implementation shrinks the
        tracked population so ``k`` keeps following Definition 2.1; exact
        algorithms additionally patch their counters/state in overrides
        (which must call ``super().detach(...)`` first).  The participation
        mask clears the vertex here.

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
        if self._mask is not None:
            self._mask[vertex] = False
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
        if self._mask is not None:
            self._mask[vertex] = True
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
        # The participation mask already clears both: the successor by the
        # detach, the old root as the sink it was.
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
        self._mask = None
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


class FilterQuantile(ContinuousQuantileAlgorithm):
    """The filter family: POS, HBC and IQ (Sections 3.2, 4.1, 4.2).

    Every member tracks the exact quantile against a node-side filter
    ``[low, high]`` (a point filter is ``[f, f]``) and shares the rest of
    the protocol, which this base owns:

    * the TAG initialization and its point-filter broadcast (IQ overrides
      it to seed Ξ as well);
    * :attr:`counters`, the root's ``(l, e, g)`` counts relative to the
      filter, and each vertex's label against it (one labelling method);
    * the validation fold: nodes whose label changed report transitions
      (and hints), the root folds them and adopts the new labels;
    * membership patching: :meth:`detach` moves a node's last label out of
      the counters, :meth:`rejoin` labels it against :meth:`filter_bounds`
      and moves it in;
    * :meth:`warm_start`, which lets the adaptive switcher hand the query
      over mid-stream without re-initializing (Section 4.2);
    * the raw-value request that ends a refinement with a filter broadcast.

    Subclasses say where their filter sits (:meth:`filter_bounds`) and how
    they collapse it onto a point (:meth:`_collapse`).
    """

    #: Hint values a changed node's validation message is charged for: 2
    #: for POS's two-sided hints, 1 for the max-difference variant.
    hint_values: int = 1

    def __init__(self, spec: QuerySpec) -> None:
        super().__init__(spec)
        #: The root's counters relative to :meth:`filter_bounds`.
        self.counters: RootCounters | None = None
        #: Each vertex's label against the filter, as the root knows it.
        self._state: np.ndarray | None = None

    @abstractmethod
    def filter_bounds(self) -> tuple[int, int]:
        """The node-side filter as an inclusive interval ``(low, high)``."""

    @abstractmethod
    def _collapse(self, quantile: int, quantile_history: list[int] | None) -> None:
        """Move the filter onto the point ``quantile`` (root-side only)."""

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        """TAG round, then one broadcast of the quantile as a point filter."""
        k = self.rank(net)
        quantile, counters, _ = tag_initialization(
            net, values, k, participants=self.participating_sensors(net)
        )
        net.phase = "filter"
        net.broadcast(VALUE_BITS)  # filter dissemination (Section 3.2)
        # Every node now holds the filter: adopt it like a warm start.
        self.warm_start(net, values, quantile, counters)
        return RoundOutcome(quantile=quantile, filter_broadcast=True)

    def warm_start(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        quantile: int,
        counters: RootCounters,
        quantile_history: list[int] | None = None,
    ) -> None:
        """Adopt state mid-stream instead of running an initialization round.

        The caller (the adaptive switcher) is responsible for having
        broadcast ``quantile`` as the new network-wide filter and for
        providing counters that are exact relative to it.
        ``quantile_history`` (oldest first, ``quantile`` last) lets IQ
        re-seed Ξ from the recent trend; the other members ignore it.
        """
        self._collapse(quantile, quantile_history)
        self._anchor(net, values, counters)
        self.current_quantile = quantile

    def _labels(
        self, net: TreeNetwork, values: np.ndarray, low: int, high: int
    ) -> np.ndarray:
        """Every vertex's label against the filter ``[low, high]``."""
        return classify_array(values, low, high, self.participation_mask(net))

    def _anchor(
        self, net: TreeNetwork, values: np.ndarray, counters: RootCounters
    ) -> None:
        """Adopt ``counters``, exact for the current filter, and relabel."""
        self.counters = counters
        self._state = self._labels(net, values, *self.filter_bounds())

    def _validate(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        in_band: np.ndarray | None = None,
    ) -> ValidationPayload | None:
        """The round's validation convergecast against the current filter.

        Folds the merged transition counters into :attr:`counters`, adopts
        the new labels and returns the merged payload (hints, and IQ's
        multiset ``A`` from the ``in_band`` nodes).
        """
        if self.counters is None or self._state is None:
            raise ProtocolError("update() called before initialize()")
        new_state = self._labels(net, values, *self.filter_bounds())
        batch = build_validation(
            net, values, self._state, new_state, self.hint_values, in_band
        )
        net.phase = "validation"
        merged = net.convergecast(batch)
        if merged is not None:
            self.counters.apply_validation(merged)
        self._state = new_state
        return merged

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
        """End a refinement with a raw-value request (:func:`direct_request`).

        The nodes cannot infer the new quantile from the request, so the
        round ends with a filter broadcast and the filter collapses onto it.
        """
        net.phase = "refinement"
        quantile, counters, _ = direct_request(
            net,
            values,
            self.participating_sensors(net),
            self.population(net),
            k,
            low,
            high,
            below_low,
            above_high,
        )
        net.phase = "filter"
        net.broadcast(VALUE_BITS)  # the new filter
        self._collapse(quantile, None)
        self._anchor(net, values, counters)
        return RoundOutcome(
            quantile=quantile,
            refinements=refinements,
            direct_request=True,
            filter_broadcast=True,
        )

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        if self.counters is None or self._state is None:
            return
        shift_counter(self.counters, int(self._state[vertex]), -1)
        self._state[vertex] = EQ

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        if self.counters is None or self._state is None:
            return
        label = classify_interval(int(values[vertex]), *self.filter_bounds())
        shift_counter(self.counters, label, 1)
        self._state[vertex] = label


def request_values(
    net: TreeNetwork,
    values: np.ndarray,
    participants: Sequence[int],
    low: int | None = None,
    high: int | None = None,
    keep: int | None = None,
    keep_largest: bool = False,
) -> tuple[int, ...]:
    """One value-set convergecast; returns the ascending values received.

    Every participant sends its value (truncated like ``int()``), or only
    those whose value lies in ``[low, high]`` when bounds are given; a
    repeated participant sends once.  With ``keep`` the hops prune to the
    ``keep`` smallest (``keep_largest``: largest) values plus ties of the
    boundary value (Section 4.2.2).  The contributions fold as a
    :class:`~repro.core.payloads.ValueSetBatch` when no hop below the root
    can prune (``keep`` is ``None`` or no root branch holds more than
    ``keep`` contributors) and merge as payload objects otherwise.  This
    is the only place value-set contributions are built; phase labels and
    request broadcasts stay with the callers.
    """
    ids = np.asarray(participants, dtype=np.int64)
    if not (ids[1:] > ids[:-1]).all():  # unsorted, or a repeat to drop
        ids = ids[np.sort(np.unique(ids, return_index=True)[1])]
    sent = np.asarray(values)[ids].astype(np.int64)
    if low is not None:
        inside = (sent >= low) & (sent <= high)
        ids, sent = ids[inside], sent[inside]
    batch = ValueSetBatch(ids, sent, keep, keep_largest)
    merged = net.convergecast(batch if batch.folds_on(net.tree) else batch.payloads())
    return merged.values if merged is not None else ()


def direct_request(
    net: TreeNetwork,
    values: np.ndarray,
    participants: Sequence[int],
    population: int,
    k: int,
    low: int,
    high: int,
    below_low: int | None,
    above_high: int | None,
) -> tuple[int, RootCounters, tuple[int, ...]]:
    """Request all values in ``[low, high]`` and pick rank ``k`` centrally.

    Broadcasts the interval bounds (under the caller's phase), collects the
    raw values and returns the quantile, exact counters relative to it and
    the received values.  ``below_low`` / ``above_high`` count the
    ``population`` values strictly below / above the interval; one of them
    may be unknown, and the quantile's offset inside the response is
    computed from the known side.  The quantile is guaranteed to lie in
    ``[low, high]``, so all of its duplicates are in the response and the
    counters come out exact.
    """
    net.broadcast(2 * VALUE_BITS)  # request: the interval bounds
    received = request_values(net, values, participants, low, high)
    if below_low is None:
        # Everything at or below ``high`` except the response lies below.
        assert above_high is not None
        below_low = population - above_high - len(received)
    index = k - below_low - 1
    if not 0 <= index < len(received):
        raise ProtocolError(
            f"direct request returned {len(received)} values but rank "
            f"offset is {index}"
        )
    quantile = received[index]
    # The response is ascending: the splits are two binary searches.
    before = bisect_left(received, quantile)
    less = below_low + before
    equal = bisect_right(received, quantile) - before
    counters = RootCounters(l=less, e=equal, g=population - less - equal)
    return quantile, counters, received


def collect_histogram(
    net: TreeNetwork,
    values: np.ndarray,
    grid: BucketGrid,
    mask: np.ndarray,
    compressed: bool = True,
) -> tuple[int, ...]:
    """One histogram convergecast over ``grid``; returns the bucket counts.

    Every vertex in ``mask`` whose value lies in the grid reports its
    bucket; ``compressed`` drops empty buckets from the on-air encoding.
    This is the only place histogram contributions are built.
    """
    values = np.asarray(values)
    inside = np.flatnonzero(mask & (values >= grid.low) & (values <= grid.high))
    merged = net.convergecast(
        HistogramBatch(
            inside,
            grid.bucket_of_array(values[inside]),
            grid.num_buckets,
            compressed=compressed,
        )
    )
    if merged is None:
        return (0,) * grid.num_buckets
    return merged.counts


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
    smallest = request_values(net, values, participants, keep=k)
    if len(smallest) < k:
        raise ProtocolError("TAG initialization did not deliver k values")
    quantile = smallest[k - 1]
    # Value-set merges keep the tuple ascending, so the rank splits
    # fall out of two binary searches instead of two linear scans.
    less = bisect_left(smallest, quantile)
    equal = bisect_right(smallest, quantile) - less
    counters = RootCounters(l=less, e=equal, g=population - less - equal)
    return quantile, counters, smallest
