"""Reference simulation walk: the per-hop convergecast and broadcast.

The array paths in :mod:`repro.sim.engine` and :mod:`repro.faults.network`
are the only convergecast and broadcast the package ships.  This module
keeps the per-vertex walk they replaced, verbatim, as the oracle that the
equivalence suite (``tests/test_vectorized.py``), the CLI slices and the
microbenchmarks' baseline columns compare against:

* :class:`ReferenceTreeNetwork` walks a reliable tree one vertex at a time
  and charges the ledger one scalar at a time;
* :class:`ReferenceFaultyTreeNetwork` does the same under a
  :class:`~repro.faults.plan.FaultPlan`, with stop-and-wait ARQ per hop;
* :func:`reference_drivers` swaps the faulty reference in for
  ``FaultyTreeNetwork`` inside :mod:`repro.faults.experiment` while it is
  open, so every ``FaultDriver`` built meanwhile — and with it
  ``run_fault_experiment``, ``MultiQueryRunner`` and the CLI — runs the
  reference walk.

Both classes override only ``convergecast`` and ``broadcast``.  The array
paths must match them bit for bit: every ledger array, ``phase_bits``,
``collection_log``, the fault counters, the link-quality table (values and
insertion order) and the plan's generator state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional, TypeVar

from repro.errors import ProtocolError
from repro.faults import experiment
from repro.faults.network import FaultyTreeNetwork
from repro.radio.message import ack_cost, message_bits
from repro.sim.engine import CollectionRecord, Payload, PayloadBatch, TreeNetwork

P = TypeVar("P", bound=Payload)
VertexDown = Callable[[int], bool]
HopDelivered = Callable[[int, int, Payload], tuple[bool, int]]


def walk_convergecast(
    net: TreeNetwork,
    contributions: "Mapping[int, P] | PayloadBatch",
    vertex_down: VertexDown,
    hop_delivered: HopDelivered,
    track_sources: bool,
) -> Optional[P]:
    """Aggregate payloads leaf-to-root, one vertex and one hop at a time.

    ``vertex_down`` says whether a vertex is dead or in an outage;
    ``hop_delivered`` transmits one merged payload over a ``vertex ->
    parent`` link, charges the ledger and returns ``(delivered,
    bits_on_air)``.  ``track_sources`` follows per-hop provenance, which a
    lossy network needs to report the delivered contributors.  A column
    batch is expanded into the payload objects it stands for and merged
    with ``merged_with`` like any other mapping.
    """
    if isinstance(contributions, PayloadBatch):
        contributions = contributions.payloads()
    tree = net.tree
    net.exchanges += 1
    accumulated: dict[int, P] = {}
    expected = 0
    contributors: list[int] = []
    sources: dict[int, set[int]] = {}
    for vertex, payload in contributions.items():
        if payload.is_empty():
            continue
        expected += 1
        if vertex_down(vertex):
            continue  # a dead node measures and transmits nothing
        accumulated[vertex] = payload
        contributors.append(vertex)
        if track_sources:
            sources[vertex] = {vertex}

    phase_total = 0
    for vertex in tree.bottom_up_order:
        if vertex == tree.root:
            continue
        merged = accumulated.get(vertex)
        if merged is None:
            continue
        if vertex_down(vertex):
            continue  # forwarded state dies with the forwarding node
        parent = tree.parent[vertex]
        if vertex in net.virtual_vertices:
            delivered = True  # device-internal link, no radio
        else:
            delivered, bits = hop_delivered(vertex, parent, merged)
            phase_total += bits
        if not delivered:
            continue
        existing = accumulated.get(parent)
        accumulated[parent] = (
            merged if existing is None else existing.merged_with(merged)
        )
        if track_sources:
            sources.setdefault(parent, set()).update(sources.get(vertex, ()))
    net.phase_bits[net.phase] = net.phase_bits.get(net.phase, 0) + phase_total
    if track_sources:
        delivered_sources = frozenset(sources.get(tree.root, set()))
    else:
        # Reliable delivery: every live contribution reaches the root.
        delivered_sources = frozenset(contributors)
    net.collection_log.append(
        CollectionRecord(expected=expected, delivered=delivered_sources)
    )
    return accumulated.get(tree.root)


def walk_broadcast(
    net: TreeNetwork, payload_bits: int, vertex_down: VertexDown
) -> int:
    """Flood ``payload_bits`` from the root, one vertex at a time.

    A down internal vertex cannot retransmit, so its subtree misses the
    flood; down receivers neither listen nor pay.  Returns the number of
    non-root vertices reached.
    """
    if payload_bits < 0:
        raise ProtocolError(f"payload_bits must be >= 0, got {payload_bits}")
    tree = net.tree
    net.exchanges += 1
    cost = message_bits(payload_bits)
    phase_total = 0
    reached = [False] * tree.num_vertices
    reached[tree.root] = True
    reached_count = 0
    for vertex in tree.top_down_order:
        if not reached[vertex] or not tree.children[vertex]:
            continue
        if vertex != tree.root and vertex_down(vertex):
            continue  # pruned by churn: the subtree misses the flood
        net.ledger.charge_send(vertex, cost)
        phase_total += cost.total_bits
        for child in tree.children[vertex]:
            if vertex_down(child):
                continue  # dead receivers neither listen nor pay
            reached[child] = True
            reached_count += 1
            if child not in net.virtual_vertices:
                net.ledger.charge_recv(child, cost)
    net.phase_bits[net.phase] = net.phase_bits.get(net.phase, 0) + phase_total
    return reached_count


class ReferenceTreeNetwork(TreeNetwork):
    """Reliable network on the per-hop reference walk.

    Uses the base class's scalar one-vertex and one-hop definitions,
    :meth:`~TreeNetwork._vertex_down` and :meth:`~TreeNetwork._hop_delivered`.
    """

    def convergecast(
        self, contributions: "Mapping[int, P] | PayloadBatch"
    ) -> Optional[P]:
        return walk_convergecast(
            self,
            contributions,
            self._vertex_down,
            self._hop_delivered,
            track_sources=False,
        )

    def broadcast(self, payload_bits: int) -> int:
        return walk_broadcast(self, payload_bits, self._vertex_down)


class ReferenceFaultyTreeNetwork(FaultyTreeNetwork):
    """Faulty network on the per-hop reference walk.

    Down vertices come straight from the plan's scalar ``is_down``; each
    hop runs :meth:`_arq_hop`, which draws and charges one attempt at a
    time.
    """

    def convergecast(
        self, contributions: "Mapping[int, P] | PayloadBatch"
    ) -> Optional[P]:
        return walk_convergecast(
            self,
            contributions,
            self.plan.is_down,
            self._arq_hop,
            track_sources=True,
        )

    def broadcast(self, payload_bits: int) -> int:
        return walk_broadcast(self, payload_bits, self.plan.is_down)

    def _arq_hop(
        self, vertex: int, parent: int, payload: Payload
    ) -> tuple[bool, int]:
        """One hop of stop-and-wait ARQ, every attempt charged to the ledger."""
        cost = message_bits(payload.payload_bits())
        parent_down = self.plan.is_down(parent)
        ack = ack_cost()
        arq = self.arq
        ledger = self.ledger
        delivered = False
        bits = 0
        for attempt in range(max(1, arq.attempts_for(vertex, parent))):
            if attempt > 0:
                self.retransmissions += 1
            ledger.charge_send(vertex, cost, values=payload.num_values())
            bits += cost.total_bits
            if parent_down:
                frame_ok = False
            else:
                # The parent listens on its TDMA schedule whether or not the
                # frame survives the channel.
                ledger.charge_recv(parent, cost)
                frame_ok = not self.plan.transmission_lost(vertex, parent)
                if self._feeds_uplink_stats:
                    # Channel truth for the uplink (a down parent is not a
                    # channel sample and must not poison the loss estimate).
                    self.link_stats.observe(vertex, parent, frame_ok)
            if frame_ok:
                delivered = True
            else:
                self.lost_transmissions += 1
            if not arq.enabled:
                break
            if frame_ok:
                # Parent acknowledges; the ACK rides the same lossy channel.
                ledger.charge_send(parent, ack)
                ledger.charge_recv(vertex, ack)
                self.acks_sent += 1
                bits += ack.total_bits
                ack_ok = not self.plan.transmission_lost(parent, vertex)
                # The ACK samples the downlink — the other half of ETX.
                self.link_stats.observe(parent, vertex, ack_ok)
                if ack_ok:
                    arq.observe(vertex, parent, True)
                    break
                self.lost_acks += 1
            else:
                # The child listens through the ACK window in vain.
                ledger.charge_recv(vertex, ack)
            # From the sender's viewpoint only an ACK confirms the attempt.
            arq.observe(vertex, parent, False)
        return delivered, bits


@contextmanager
def reference_drivers(active: bool = True) -> Iterator[None]:
    """Run every ``FaultDriver`` built inside the block on the reference walk.

    Swaps ``repro.faults.experiment.FaultyTreeNetwork`` for
    :class:`ReferenceFaultyTreeNetwork` and restores it on exit.  With
    ``active=False`` the block runs on the array paths, so one scenario can
    be written once and run on both walks.
    """
    if not active:
        yield
        return
    original = experiment.FaultyTreeNetwork
    experiment.FaultyTreeNetwork = ReferenceFaultyTreeNetwork
    try:
        yield
    finally:
        experiment.FaultyTreeNetwork = original
