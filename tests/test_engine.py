"""Unit tests for the convergecast/broadcast engine."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.constants import HEADER_BITS
from repro.errors import ProtocolError
from repro.network.tree import RoutingTree, tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Payload, TreeNetwork

from tests.reference_topology import internal_vertices


@dataclass(frozen=True)
class SumPayload(Payload):
    """Minimal payload: an integer merged by addition, fixed 32-bit size."""

    value: int
    bits: int = 32

    def merged_with(self, other: "SumPayload") -> "SumPayload":
        return SumPayload(self.value + other.value, self.bits)

    def payload_bits(self) -> int:
        return self.bits

    def num_values(self) -> int:
        return 1


@dataclass(frozen=True)
class EmptyPayload(Payload):
    def merged_with(self, other):  # pragma: no cover - never merged
        return self

    def payload_bits(self) -> int:
        return 0

    def is_empty(self) -> bool:
        return True


class TestConvergecast:
    def test_aggregates_all_contributions(self, small_net: TreeNetwork):
        contributions = {
            v: SumPayload(1) for v in small_net.tree.sensor_nodes
        }
        merged = small_net.convergecast(contributions)
        assert merged is not None
        assert merged.value == 7

    def test_no_contributions_returns_none(self, small_net: TreeNetwork):
        assert small_net.convergecast({}) is None

    def test_empty_payloads_are_silent(self, small_net: TreeNetwork):
        contributions = {v: EmptyPayload() for v in small_net.tree.sensor_nodes}
        assert small_net.convergecast(contributions) is None
        assert small_net.ledger.messages_sent.sum() == 0

    def test_every_contributor_path_transmits(self, small_net: TreeNetwork):
        # Only vertex 6 contributes; the path 6 -> 4 -> 1 -> 0 must carry it.
        merged = small_net.convergecast({6: SumPayload(5)})
        assert merged is not None and merged.value == 5
        sent = small_net.ledger.messages_sent
        assert sent[6] == 1 and sent[4] == 1 and sent[1] == 1
        assert sent[3] == 0 and sent[2] == 0 and sent[0] == 0

    def test_receivers_charged(self, small_net: TreeNetwork):
        small_net.convergecast({6: SumPayload(5)})
        received = small_net.ledger.messages_received
        assert received[4] == 1 and received[1] == 1 and received[0] == 1

    def test_root_contribution_costs_nothing(self, small_net: TreeNetwork):
        merged = small_net.convergecast({0: SumPayload(9)})
        assert merged is not None and merged.value == 9
        assert small_net.ledger.messages_sent.sum() == 0

    def test_values_sent_accounting(self, small_net: TreeNetwork):
        small_net.convergecast({3: SumPayload(1), 4: SumPayload(1)})
        ledger = small_net.ledger
        # Leaves send one value each; vertex 1 forwards the merged payload,
        # whose num_values() is still 1 (SumPayload counts itself once).
        assert ledger.values_sent[3] == 1
        assert ledger.values_sent[4] == 1
        assert ledger.values_sent[1] == 1

    def test_conservation_sent_equals_received(self, small_net: TreeNetwork):
        contributions = {v: SumPayload(1) for v in small_net.tree.sensor_nodes}
        small_net.convergecast(contributions)
        ledger = small_net.ledger
        assert ledger.bits_sent.sum() == ledger.bits_received.sum()
        assert ledger.messages_sent.sum() == ledger.messages_received.sum()


class TestBroadcast:
    def test_internal_vertices_send_once(self, small_net: TreeNetwork):
        small_net.broadcast(16)
        sent = small_net.ledger.messages_sent
        for vertex in internal_vertices(small_net.tree):
            assert sent[vertex] == 1
        for vertex in range(small_net.tree.num_vertices):
            if small_net.tree.is_leaf(vertex):
                assert sent[vertex] == 0

    def test_every_non_root_receives_once(self, small_net: TreeNetwork):
        small_net.broadcast(16)
        received = small_net.ledger.messages_received
        assert received[small_net.tree.root] == 0
        for vertex in small_net.tree.sensor_nodes:
            assert received[vertex] == 1

    def test_bits_include_header(self, small_net: TreeNetwork):
        small_net.broadcast(16)
        internal = len(internal_vertices(small_net.tree))
        assert small_net.ledger.bits_sent.sum() == internal * (HEADER_BITS + 16)

    def test_negative_payload_rejected(self, small_net: TreeNetwork):
        with pytest.raises(ProtocolError):
            small_net.broadcast(-1)


class TestConstruction:
    def test_mismatched_sizes_rejected(self, small_tree: RoutingTree):
        ledger = EnergyLedger(3, 0, EnergyModel(), 35.0)
        with pytest.raises(ProtocolError):
            TreeNetwork(small_tree, ledger)

    def test_mismatched_root_rejected(self):
        tree = tree_from_parents(1, [1, -1, 1])
        ledger = EnergyLedger(3, 0, EnergyModel(), 35.0)
        with pytest.raises(ProtocolError):
            TreeNetwork(tree, ledger)

    def test_num_sensor_nodes(self, small_net: TreeNetwork):
        assert small_net.num_sensor_nodes == 7
