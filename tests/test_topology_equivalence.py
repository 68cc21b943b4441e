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

``TestDerivedStructures`` pins what the tree reads off its arrays alone
(preorder ranges, levels, the hop order, the children CSR, each vertex's
branch and the cover below a mask) against stack-search oracles, on trees
built every way a run builds them: from a parent array, re-parented,
re-rooted and with relays.
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
    _tree_from_parent_array,
    tree_from_parents,
    tree_multi_reparented,
)

from tests import reference_topology as ref

RANGES = (0.1, 1.0, 2.5, 35.0)


def fields(tree: RoutingTree) -> tuple:
    """Every field, element types included (the tuples must hold Python
    ints, as the fingerprints hash their reprs)."""
    values = (
        tree.root,
        tree.parent,
        tree.children,
        tree.depth,
        tree.bottom_up_order,
        tree.subtree_size,
        tree.relays,
    )
    kinds = (
        [type(v) for v in tree.parent],
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
    """``(root, parent, rng)``: a random recursive tree on 2–400 vertices
    with random labels, so the root is any vertex, and the generator the
    tests draw moves, relays and masks from."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(n)
    parent = [-1] * n
    for index in range(1, n):
        parent[int(labels[index])] = int(labels[rng.integers(0, index)])
    if draw(st.booleans()):
        rng.uniform(-50.0, 150.0, (n, 2))  # unused: keeps the later draws
    return int(labels[0]), parent, rng


class TestTreeBuilders:
    @settings(max_examples=300, deadline=None)
    @given(recursive_trees())
    def test_tree_from_parents(self, tree_case):
        root, parent, _ = tree_case
        assert outcome(tree_from_parents, root, parent) == outcome(
            ref.tree_from_parents, root, parent
        )

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees(), st.booleans(), st.integers(0, 6))
    def test_multi_reparented(self, tree_case, reroot, extra_moves):
        """Random moves (some of which close cycles) and, with ``reroot``,
        a fail-over that reverses the successor's path to the old root."""
        root, parent, rng = tree_case
        tree = tree_from_parents(root, parent)
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
            moves += [(path[i + 1], path[i]) for i in range(len(path) - 1)]
        final_root = root if new_root is None else new_root
        for _ in range(extra_moves):
            vertex = int(rng.integers(0, n))
            if vertex in (root, final_root):
                continue
            moves.append((vertex, int(rng.integers(0, n))))
            rng.uniform(0, 40)  # unused: keeps the later draws

        expected_parent = list(tree.parent)
        for vertex, new_parent in moves:
            expected_parent[vertex] = new_parent
        expected_parent[final_root] = -1
        got = outcome(tree_multi_reparented, tree, moves, new_root=new_root)
        if not moves and new_root is None:
            assert got == fields(tree)
            return
        assert got == outcome(
            ref.tree_from_parent_array,
            final_root,
            expected_parent,
            relays=tree.relays,
        )

    @settings(max_examples=200, deadline=None)
    @given(recursive_trees(), st.sampled_from(("self", "range", "cycle", "root")))
    def test_bad_parent_arrays_raise_the_same_error(self, tree_case, fault):
        root, parent, rng = tree_case
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
            below = ref.subtree_vertices(tree_from_parents(root, parent), vertex)
            parent[vertex] = below[int(rng.integers(0, len(below)))]
        else:
            parent[root] = others[0]
        got = outcome(tree_from_parents, root, parent)
        assert got[0] == "TopologyError"
        assert got == outcome(ref.tree_from_parents, root, parent)
        if fault != "range":
            # Past the range check: the derivation itself must reject it.
            assert outcome(_tree_from_parent_array, root, parent) == outcome(
                ref.tree_from_parent_array, root, parent
            )


@st.composite
def routing_trees(draw):
    """``(tree, rng)``: a random recursive tree, then possibly re-parented
    by random moves (re-rooted along the successor's path or not) and
    possibly given relays."""
    root, parent, rng = draw(recursive_trees())
    tree = tree_from_parents(root, parent)
    n = tree.num_vertices
    if draw(st.booleans()):
        new_root, moves = None, []
        if draw(st.booleans()):
            new_root = int(rng.integers(0, n))
            path = tree.path_to_root(new_root)
            moves += [(path[i + 1], path[i]) for i in range(len(path) - 1)]
        for _ in range(draw(st.integers(0, 6))):
            vertex = int(rng.integers(0, n))
            if vertex not in (root, new_root):
                moves.append((vertex, int(rng.integers(0, n))))
                rng.uniform(0, 40)  # unused: keeps the later draws
        try:
            tree = tree_multi_reparented(tree, moves, new_root=new_root)
        except TopologyError:
            pass  # the moves closed a cycle; keep the tree they started from
    if n > 2 and draw(st.booleans()):
        relays = frozenset(
            int(v) for v in rng.choice(n, size=min(3, n - 2), replace=False)
        )
        tree = tree.with_relays(relays - {tree.root})
    return tree, rng


class TestDerivedStructures:
    @settings(max_examples=200, deadline=None)
    @given(routing_trees())
    def test_arrays_equal_their_oracles(self, drawn):
        tree, rng = drawn
        n, root = tree.num_vertices, tree.root
        oracle = ref.tree_from_parent_array(root, list(tree.parent), tree.relays)
        # Preorder ranges are exactly the subtrees.
        start = tree.preorder
        assert sorted(start.tolist()) == list(range(n))
        at = np.argsort(start)
        for vertex in range(n):
            inside = at[start[vertex] : start[vertex] + tree.size_array[vertex]]
            assert set(inside.tolist()) == set(ref.subtree_vertices(tree, vertex))
        # The BFS levels are the depth groups.
        depth = np.array(oracle.depth)
        assert [sorted(level.tolist()) for level in tree.levels] == [
            np.flatnonzero(depth == d).tolist() for d in range(depth.max() + 1)
        ]
        # The hop order plus the root is the stack search's bottom-up order.
        assert tuple(tree.bottom_up.tolist()) + (root,) == oracle.bottom_up_order
        assert tree.hop_order + (root,) == oracle.bottom_up_order
        # The children CSR: each vertex's children, and who has any (the
        # broadcast's senders).
        ptr = tree.child_ptr.tolist()
        kids = tree.child_index.tolist()
        assert [tuple(kids[a:b]) for a, b in zip(ptr, ptr[1:])] == list(
            oracle.children
        )
        has_children = tree.child_ptr[1:] > tree.child_ptr[:-1]
        assert np.flatnonzero(has_children).tolist() == list(
            ref.internal_vertices(tree)
        )
        assert dict(enumerate(tree.branch.tolist())) == ref.branch_map(tree)
        for density in (0.0, 0.05, 0.3, 1.0):
            mask = rng.random(n) < density
            for with_root in (False, True):
                mask[root] = with_root
                below = set(np.flatnonzero(tree.below(mask)).tolist())
                assert below == ref.cut_off(tree, mask)

    @settings(max_examples=100, deadline=None)
    @given(routing_trees())
    def test_twins_compare_and_hash_equal(self, drawn):
        tree, rng = drawn
        twin = _tree_from_parent_array(tree.root, list(tree.parent), tree.relays)
        assert twin is not tree
        assert twin == tree and hash(twin) == hash(tree)
        assert fields(twin) == fields(tree)
        vertex = int(rng.integers(0, tree.num_vertices))
        if vertex != tree.root:
            # Any vertex outside the subtree but the current parent is a
            # new parent that keeps it a tree.
            inside = set(ref.subtree_vertices(tree, vertex))
            others = [
                v
                for v in range(tree.num_vertices)
                if v not in inside and v != tree.parent[vertex]
            ]
            if others:
                moved = tree_multi_reparented(tree, [(vertex, others[0])])
                assert moved != tree

    def test_arrays_are_read_only(self, small_tree):
        arrays = [
            small_tree.parent_array,
            small_tree.child_ptr,
            small_tree.child_index,
            small_tree.depth_array,
            small_tree.size_array,
            small_tree.preorder,
            small_tree.bottom_up,
            small_tree.branch,
            *small_tree.levels,
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = array[0]
