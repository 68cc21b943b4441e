"""The array deployment builders equal the scalar builders they replaced.

``tests/reference_topology.py`` keeps the n×n neighbour search, the
FIFO-queue min-hop tree and the stack-search tree derivation.  The array
builders must reproduce them exactly: adjacency, parents, depths, every
``RoutingTree`` field (``bottom_up_order`` included, since the faulty walk
draws its random values in that order) and the error raised on a
disconnected graph or a bad parent array.

The random fields aim at the cell list's edges: points exactly on
multiples of the range and on cell boundaries, lattices whose neighbours
sit exactly one range apart, duplicate points, coordinates far off the
field or negative, and one- or two-point deployments.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network.geometry import CELL_MARGIN
from repro.network.routing import build_randomized_routing_tree, build_routing_tree
from repro.network.topology import build_physical_graph
from repro.network.tree import (
    RoutingTree,
    _tree_from_parent_links,
    tree_from_parents,
    tree_multi_reparented,
)

from tests import reference_topology as ref

RANGES = (0.1, 1.0, 2.5, 35.0)


def fields(tree: RoutingTree) -> tuple:
    """Every field, element types included (the tuples must hold Python
    ints and floats, as the fingerprints hash their reprs)."""
    values = (
        tree.root,
        tree.parent,
        tree.link_distance,
        tree.children,
        tree.depth,
        tree.bottom_up_order,
        tree.subtree_size,
        tree.relays,
    )
    kinds = (
        [type(v) for v in tree.parent],
        [type(v) for v in tree.link_distance],
        [type(v) for v in tree.depth + tree.bottom_up_order + tree.subtree_size],
        [type(v) for kids in tree.children for v in kids],
    )
    return values, kinds


def outcome(build, *args, **kwargs):
    """``fields`` of the built tree, or the ``TopologyError`` message."""
    try:
        return fields(build(*args, **kwargs))
    except TopologyError as error:
        return "TopologyError", str(error)


@st.composite
def deployments(draw):
    """``(positions, radio_range)`` of one random field."""
    rho = draw(st.sampled_from(RANGES))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("uniform", "multiples", "boundaries", "lattice")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        points = rng.uniform(0.0, draw(st.sampled_from((3.0, 8.0))) * rho, (n, 2))
    elif kind == "multiples":
        # On multiples of the range: every point on a cell's near edge.
        points = rng.integers(0, 5, (n, 2)) * rho
    elif kind == "boundaries":
        # On the cells' own boundaries (width rho * CELL_MARGIN).
        points = rng.integers(0, 5, (n, 2)) * (rho * CELL_MARGIN)
    else:
        # A lattice one range apart, so neighbours sit at exactly rho.
        side = int(np.ceil(np.sqrt(n)))
        xs, ys = np.meshgrid(np.arange(side) * rho, np.arange(side) * rho)
        points = np.column_stack([xs.ravel(), ys.ravel()])[:n]
    if n > 1 and draw(st.booleans()):
        # Duplicate points.
        copies = rng.integers(0, n, draw(st.integers(1, n)))
        points[rng.integers(0, n, len(copies))] = points[copies]
    if draw(st.booleans()):
        # Off the field: negative or far-away coordinates.
        points = points + draw(st.sampled_from((-1000.0, -7.25, 250.0, 1e4)))
    return points, rho


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(deployments(), st.data())
    def test_graph_and_min_hop_tree(self, deployment, data):
        positions, rho = deployment
        graph = build_physical_graph(positions, rho)
        oracle = ref.build_physical_graph(positions, rho)
        n = oracle.num_vertices
        assert graph.num_vertices == n
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert tuple(graph.neighbors(v) for v in range(n)) == oracle.adjacency
        assert graph.is_connected() == oracle.is_connected()
        source = data.draw(st.integers(0, n - 1))
        assert graph.reachable_from(source) == oracle.reachable_from(source)
        root = data.draw(st.integers(0, n - 1))
        assert outcome(build_routing_tree, graph, root) == outcome(
            ref.build_routing_tree, oracle, root
        )

    @settings(max_examples=60, deadline=None)
    @given(deployments(), st.integers(0, 2**32 - 1))
    def test_randomized_tree_keeps_min_hop_depths(self, deployment, seed):
        positions, rho = deployment
        graph = build_physical_graph(positions, rho)
        oracle = ref.build_physical_graph(positions, rho)
        try:
            expected = ref.build_routing_tree(oracle, 0).depth
        except TopologyError as error:
            expected = str(error)
        try:
            got = build_randomized_routing_tree(graph, np.random.default_rng(seed)).depth
        except TopologyError as error:
            got = str(error)
        assert got == expected

    @pytest.mark.parametrize("nodes", [300, 1000])
    def test_seeded_deployments(self, nodes):
        rng = np.random.default_rng(nodes)
        side = 200.0 * np.sqrt(nodes / 1000)
        positions = rng.uniform(0.0, side, (nodes + 1, 2))
        graph = build_physical_graph(positions, 35.0)
        oracle = ref.build_physical_graph(positions, 35.0)
        assert tuple(graph.neighbors(v) for v in range(nodes + 1)) == oracle.adjacency
        for root in (0, 5):
            assert outcome(build_routing_tree, graph, root) == outcome(
                ref.build_routing_tree, oracle, root
            )

    @pytest.mark.parametrize(
        "positions",
        [[[3.0, -4.0]], [[0.0, 0.0], [2.5, 0.0]], [[0.0, 0.0], [0.0, 2.5000001]]],
    )
    def test_one_and_two_points(self, positions):
        positions = np.array(positions)
        graph = build_physical_graph(positions, 2.5)
        oracle = ref.build_physical_graph(positions, 2.5)
        assert tuple(graph.neighbors(v) for v in range(len(positions))) == oracle.adjacency
        assert graph.is_connected() == oracle.is_connected()
        for root in range(len(positions)):
            assert outcome(build_routing_tree, graph, root) == outcome(
                ref.build_routing_tree, oracle, root
            )

    def test_disconnected_graph_raises_the_same_error(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0], [104.0, 0.0]])
        graph = build_physical_graph(positions, 10.0)
        oracle = ref.build_physical_graph(positions, 10.0)
        assert not graph.is_connected()
        error = outcome(build_routing_tree, graph, 0)
        assert error[0] == "TopologyError"
        assert error == outcome(ref.build_routing_tree, oracle, 0)


@st.composite
def recursive_trees(draw):
    """``(root, parent, positions)``: a random recursive tree on 2–400
    vertices with random labels, so the root is any vertex."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(n)
    parent = [-1] * n
    for index in range(1, n):
        parent[int(labels[index])] = int(labels[rng.integers(0, index)])
    positions = rng.uniform(-50.0, 150.0, (n, 2)) if draw(st.booleans()) else None
    return int(labels[0]), parent, positions, rng


class TestTreeBuilders:
    @settings(max_examples=300, deadline=None)
    @given(recursive_trees())
    def test_tree_from_parents(self, tree_case):
        root, parent, positions, _ = tree_case
        assert outcome(tree_from_parents, root, parent, positions) == outcome(
            ref.tree_from_parents, root, parent, positions
        )

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees(), st.booleans(), st.integers(0, 6))
    def test_multi_reparented(self, tree_case, reroot, extra_moves):
        """Random moves (some of which close cycles) and, with ``reroot``,
        a fail-over that reverses the successor's path to the old root."""
        root, parent, positions, rng = tree_case
        tree = tree_from_parents(root, parent, positions)
        n = tree.num_vertices
        relays = frozenset(
            int(v) for v in rng.choice(n, size=min(3, n - 2), replace=False)
        ) - {root}
        tree = tree.with_relays(relays) if relays else tree
        new_root = None
        moves = []
        if reroot:
            new_root = int(rng.integers(0, n))
            if new_root in tree.relays:
                new_root = root
            path = tree.path_to_root(new_root)
            moves += [(path[i + 1], path[i], 1.5) for i in range(len(path) - 1)]
        final_root = root if new_root is None else new_root
        for _ in range(extra_moves):
            vertex = int(rng.integers(0, n))
            if vertex in (root, final_root):
                continue
            moves.append((vertex, int(rng.integers(0, n)), float(rng.uniform(0, 40))))

        expected_parent = list(tree.parent)
        expected_link = list(tree.link_distance)
        for vertex, new_parent, distance in moves:
            expected_parent[vertex] = new_parent
            expected_link[vertex] = distance
        expected_parent[final_root] = -1
        expected_link[final_root] = 0.0
        got = outcome(tree_multi_reparented, tree, moves, new_root=new_root)
        if not moves and new_root is None:
            assert got == fields(tree)
            return
        assert got == outcome(
            ref.tree_from_parent_links,
            final_root,
            expected_parent,
            expected_link,
            relays=tree.relays,
        )

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees(), st.sampled_from(("self", "range", "cycle", "root")))
    def test_bad_parent_arrays_raise_the_same_error(self, tree_case, fault):
        root, parent, positions, rng = tree_case
        n = len(parent)
        parent = list(parent)
        others = [v for v in range(n) if v != root]
        vertex = others[int(rng.integers(0, len(others)))]
        if fault == "self":
            parent[vertex] = vertex
        elif fault == "range":
            parent[vertex] = int(rng.choice([-1, n, n + 7]))
        elif fault == "cycle":
            # Re-attach a vertex under itself or a descendant.
            below = tree_from_parents(root, parent).subtree_vertices(vertex)
            parent[vertex] = below[int(rng.integers(0, len(below)))]
        else:
            parent[root] = others[0]
        got = outcome(tree_from_parents, root, parent, positions)
        assert got[0] == "TopologyError"
        assert got == outcome(ref.tree_from_parents, root, parent, positions)
        if fault != "range":
            # Past the range check: the derivation itself must reject it.
            links = [0.0] * n
            assert outcome(_tree_from_parent_links, root, parent, links) == outcome(
                ref.tree_from_parent_links, root, parent, links
            )
