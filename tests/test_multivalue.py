"""Unit tests for multi-value nodes (artificial children, Section 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pos import POS
from repro.core.iq import IQ
from repro.errors import ConfigurationError, ProtocolError
from repro.network.multivalue import expand_tree, expand_values
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import exact_quantile, quantile_rank
from repro.types import QuerySpec


def make_net(tree, virtual=frozenset()):
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
    return TreeNetwork(tree, ledger, virtual_vertices=virtual)


class TestExpandTree:
    def test_adds_artificial_children(self, small_tree):
        expansion = expand_tree(small_tree, values_per_node=3)
        assert expansion.tree.num_vertices == 8 + 7 * 2
        assert expansion.tree.num_sensor_nodes == 7 * 3
        assert len(expansion.virtual_vertices) == 14

    def test_m_equals_one_adds_nothing(self, small_tree):
        expansion = expand_tree(small_tree, values_per_node=1)
        assert expansion.tree.num_vertices == 8
        assert not expansion.virtual_vertices

    def test_artificial_children_are_leaves_of_their_host(self, small_tree):
        expansion = expand_tree(small_tree, 2)
        for vertex in expansion.virtual_vertices:
            assert expansion.tree.is_leaf(vertex)
            host = expansion.tree.parent[vertex]
            assert host in small_tree.sensor_nodes
            assert expansion.host_of[vertex] == host

    def test_slot_vertices_cover_all_readings(self, small_tree):
        expansion = expand_tree(small_tree, 3)
        vertices = [
            v for slots in expansion.slot_vertices.values() for v in slots
        ]
        assert len(vertices) == len(set(vertices)) == 21

    def test_relays_not_expanded(self, small_tree):
        relay_tree = small_tree.with_relays({3})
        expansion = expand_tree(relay_tree, 2)
        assert expansion.tree.num_sensor_nodes == 12  # 6 hosts x 2
        assert 3 not in expansion.slot_vertices

    def test_invalid_m_rejected(self, small_tree):
        with pytest.raises(ConfigurationError):
            expand_tree(small_tree, 0)


class TestExpandValues:
    def test_scatter_matches_slots(self, small_tree):
        expansion = expand_tree(small_tree, 2)
        readings = np.arange(14).reshape(7, 2)
        values = expand_values(expansion, readings)
        for row, host in enumerate(sorted(expansion.slot_vertices)):
            slots = expansion.slot_vertices[host]
            assert values[slots[0]] == readings[row, 0]
            assert values[slots[1]] == readings[row, 1]

    def test_shape_validated(self, small_tree):
        expansion = expand_tree(small_tree, 2)
        with pytest.raises(ConfigurationError):
            expand_values(expansion, np.zeros((7, 3)))


class TestVirtualVertexAccounting:
    def test_virtual_links_are_free(self, small_tree, rng):
        """The same query costs the same with m=2 virtual readings whose
        extra values never change anything (duplicates of the host)."""
        expansion = expand_tree(small_tree, 2)
        base = rng.integers(0, 100, size=(7, 2))
        base[:, 1] = base[:, 0]  # duplicate readings

        net = make_net(expansion.tree, expansion.virtual_vertices)
        spec = QuerySpec(r_min=0, r_max=100)
        algorithm = IQ(spec)
        values = expand_values(expansion, base)
        algorithm.initialize(net, values)
        for vertex in expansion.virtual_vertices:
            assert net.ledger.messages_sent[vertex] == 0
            assert net.ledger.energy[vertex] == 0.0

    def test_virtual_must_be_leaf(self, small_tree):
        ledger = EnergyLedger(8, 0, EnergyModel(), 35.0)
        with pytest.raises(ProtocolError):
            TreeNetwork(small_tree, ledger, virtual_vertices={1})  # internal

    def test_virtual_root_rejected(self, small_tree):
        ledger = EnergyLedger(8, 0, EnergyModel(), 35.0)
        with pytest.raises(ProtocolError):
            TreeNetwork(small_tree, ledger, virtual_vertices={0})


class TestMultiValueQuantiles:
    @pytest.mark.parametrize("factory", [POS, IQ])
    def test_exact_over_all_readings(self, small_tree, factory, rng):
        expansion = expand_tree(small_tree, 3)
        net = make_net(expansion.tree, expansion.virtual_vertices)
        spec = QuerySpec(r_min=0, r_max=500)
        algorithm = factory(spec)
        k = quantile_rank(21, 0.5)

        readings = [rng.integers(0, 500, size=(7, 3)) for _ in range(6)]
        for index, matrix in enumerate(readings):
            values = expand_values(expansion, matrix)
            if index == 0:
                outcome = algorithm.initialize(net, values)
            else:
                outcome = algorithm.update(net, values)
            truth = exact_quantile(matrix.ravel(), k)
            assert outcome.quantile == truth
