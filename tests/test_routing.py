"""Unit tests for repro.network.routing."""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.routing import build_routing_tree
from repro.network.topology import (
    PhysicalGraph,
    build_physical_graph,
    connected_random_graph,
)
from repro.network.tree import RoutingTree, tree_from_parents


def build_min_energy_tree(graph: PhysicalGraph, root: int = 0) -> RoutingTree:
    """Build a tree minimising summed link distance to the root (Dijkstra).

    Not used by the paper's experiments (they use min-hop SPTs); it is the
    yardstick the min-hop tree's root-path lengths are compared with.
    """
    n = graph.num_vertices
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")

    cost = [np.inf] * n
    parent = [-1] * n
    cost[root] = 0.0
    heap: list[tuple[float, int]] = [(0.0, root)]
    while heap:
        vertex_cost, vertex = heappop(heap)
        if vertex_cost > cost[vertex]:
            continue
        for neighbor in graph.neighbors(vertex):
            delta = graph.positions[vertex] - graph.positions[neighbor]
            candidate = vertex_cost + float(np.hypot(*delta))
            if candidate < cost[neighbor]:
                cost[neighbor] = candidate
                parent[neighbor] = vertex
                heappush(heap, (candidate, neighbor))

    missing = [v for v in range(n) if not np.isfinite(cost[v])]
    if missing:
        raise TopologyError(
            f"{len(missing)} vertices cannot reach root {root} "
            f"(first few: {missing[:5]}); increase the radio range"
        )
    return tree_from_parents(root, parent)


class TestShortestPathTree:
    def test_min_hop_depths(self):
        # Chain 0-1-2-3 with range covering one hop only.
        positions = np.column_stack([np.arange(4) * 10.0, np.zeros(4)])
        graph = build_physical_graph(positions, 11.0)
        tree = build_routing_tree(graph, root=0)
        assert list(tree.depth) == [0, 1, 2, 3]
        assert list(tree.parent) == [-1, 0, 1, 2]

    def test_depth_equals_bfs_distance(self, random_deployment):
        graph, tree = random_deployment
        # BFS depths must be minimal: no child can be more than one deeper
        # than any of its physical neighbours.
        for vertex in range(graph.num_vertices):
            for neighbor in graph.neighbors(vertex):
                assert tree.depth[vertex] <= tree.depth[neighbor] + 1

    def test_tree_edges_are_physical_edges(self, random_deployment):
        graph, tree = random_deployment
        for vertex in range(tree.num_vertices):
            if vertex == tree.root:
                continue
            assert tree.parent[vertex] in graph.neighbors(vertex)

    def test_tie_break_prefers_closer_parent(self):
        # Vertex 3 can attach to 1 or 2 (both depth 1); 2 is closer.
        positions = np.array(
            [[0.0, 0.0], [10.0, 5.0], [10.0, -1.0], [20.0, 0.0]]
        )
        graph = build_physical_graph(positions, 12.0)
        tree = build_routing_tree(graph, root=0)
        assert tree.parent[3] == 2

    def test_disconnected_raises(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
        graph = build_physical_graph(positions, 10.0)
        with pytest.raises(TopologyError):
            build_routing_tree(graph, root=0)

    def test_invalid_root_raises(self, random_deployment):
        graph, _ = random_deployment
        with pytest.raises(TopologyError):
            build_routing_tree(graph, root=999)

    def test_alternate_root(self, random_deployment):
        graph, _ = random_deployment
        tree = build_routing_tree(graph, root=5)
        assert tree.root == 5
        assert tree.depth[5] == 0


class TestMinEnergyTree:
    def test_spans_all_vertices(self, rng):
        graph = connected_random_graph(40, radio_range=40.0, rng=rng)
        tree = build_min_energy_tree(graph, root=0)
        assert tree.num_vertices == 40
        assert all(d >= 0 for d in tree.depth)

    def test_total_distance_not_worse_than_spt(self, rng):
        graph = connected_random_graph(40, radio_range=50.0, rng=rng)
        spt = build_routing_tree(graph, root=0)
        met = build_min_energy_tree(graph, root=0)

        def root_path_distance(tree, vertex):
            total = 0.0
            while vertex != tree.root:
                parent = tree.parent[vertex]
                delta = graph.positions[vertex] - graph.positions[parent]
                total += float(np.hypot(*delta))
                vertex = parent
            return total

        for vertex in range(1, 40):
            assert root_path_distance(met, vertex) <= root_path_distance(
                spt, vertex
            ) + 1e-9

    def test_disconnected_raises(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        graph = build_physical_graph(positions, 10.0)
        with pytest.raises(TopologyError):
            build_min_energy_tree(graph, root=0)
