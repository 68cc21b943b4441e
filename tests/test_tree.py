"""Unit tests for repro.network.tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.tree import RoutingTree, tree_from_parents


class TestTreeFromParents:
    def test_small_tree_structure(self, small_tree: RoutingTree):
        assert small_tree.root == 0
        assert small_tree.num_vertices == 8
        assert small_tree.num_sensor_nodes == 7
        assert small_tree.children[0] == (1, 2)
        assert small_tree.children[1] == (3, 4)
        assert small_tree.children[4] == (6,)
        assert small_tree.is_leaf(3)
        assert not small_tree.is_leaf(2)

    def test_depths(self, small_tree: RoutingTree):
        assert small_tree.depth[0] == 0
        assert small_tree.depth[1] == small_tree.depth[2] == 1
        assert small_tree.depth[6] == 3

    def test_subtree_sizes(self, small_tree: RoutingTree):
        assert small_tree.subtree_size[0] == 8
        assert small_tree.subtree_size[1] == 4  # 1, 3, 4, 6
        assert small_tree.subtree_size[2] == 3  # 2, 5, 7
        assert small_tree.subtree_size[6] == 1

    def test_bottom_up_order_children_before_parents(self, small_tree: RoutingTree):
        position = {v: i for i, v in enumerate(small_tree.bottom_up_order)}
        for vertex in range(small_tree.num_vertices):
            for child in small_tree.children[vertex]:
                assert position[child] < position[vertex]

    def test_top_down_is_reverse_of_bottom_up(self, small_tree: RoutingTree):
        assert small_tree.top_down_order == tuple(
            reversed(small_tree.bottom_up_order)
        )

    def test_path_to_root(self, small_tree: RoutingTree):
        assert small_tree.path_to_root(6) == [6, 4, 1, 0]
        assert small_tree.path_to_root(0) == [0]

    def test_sensor_nodes_excludes_root(self, small_tree: RoutingTree):
        assert 0 not in small_tree.sensor_nodes
        assert len(small_tree.sensor_nodes) == 7

    def test_internal_vertices(self, small_tree: RoutingTree):
        assert set(small_tree.internal_vertices()) == {0, 1, 2, 4}

    def test_link_distances_from_positions(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        tree = tree_from_parents(0, [-1, 0], positions)
        assert tree.link_distance[0] == 0.0
        assert tree.link_distance[1] == pytest.approx(5.0)


class TestValidation:
    def test_rejects_cycle(self):
        # 1 and 2 form a cycle unreachable from root 0.
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 2, 1])

    def test_rejects_self_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 1])

    def test_rejects_unreachable_vertex(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 0, -1])

    def test_rejects_root_with_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [1, 0])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(TopologyError):
            tree_from_parents(0, [-1, 5])

    def test_rejects_out_of_range_root(self):
        with pytest.raises(TopologyError):
            tree_from_parents(3, [-1, 0])


class TestCachedOrders:
    """``sensor_nodes`` and ``top_down_order`` are computed once per tree;
    every derived tree (relays, batched re-parenting, re-root) computes
    its own and never inherits its source's."""

    @staticmethod
    def definitions(tree: RoutingTree) -> tuple[tuple[int, ...], tuple[int, ...]]:
        sensors = tuple(
            v
            for v in range(tree.num_vertices)
            if v != tree.root and v not in tree.relays
        )
        return sensors, tuple(reversed(tree.bottom_up_order))

    def test_cached_orders_equal_their_definitions(self, random_deployment):
        from repro.network.tree import tree_multi_reparented

        _, tree = random_deployment
        # Fill the source's caches first, so a leak would show below.
        assert (tree.sensor_nodes, tree.top_down_order) == self.definitions(tree)
        leaf = tree.bottom_up_order[0]
        successor = tree.children[tree.root][0]
        derived = [
            tree.with_relays({leaf}),
            tree_multi_reparented(tree, [(leaf, tree.root, 1.0)]),
            tree_multi_reparented(
                tree, [(tree.root, successor, 1.0)], new_root=successor
            ),
        ]
        for variant in derived:
            assert (
                variant.sensor_nodes,
                variant.top_down_order,
            ) == self.definitions(variant)
            assert variant.sensor_nodes is variant.sensor_nodes
            assert variant.top_down_order is variant.top_down_order
        relayed, _, rerooted = derived
        assert leaf not in relayed.sensor_nodes
        assert rerooted.root not in rerooted.sensor_nodes
        assert tree.root in rerooted.sensor_nodes

    def test_caches_leave_equality_and_hashing_alone(self, small_tree):
        twin = tree_from_parents(0, list(small_tree.parent))
        assert small_tree.sensor_nodes and small_tree.top_down_order
        assert twin == small_tree
        assert hash(twin) == hash(small_tree)
