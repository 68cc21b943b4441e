"""Reference deployment builders: the scalar code the array builders replaced.

``repro.network`` builds a deployment with array operations: neighbours from
a cell list, a CSR ``PhysicalGraph``, and one level-synchronous BFS for
connectivity, the min-hop tree and every tree rebuild.  The functions below
are the builders it replaced, verbatim but for names: the n×n distance
matrix, the FIFO-queue BFS that breaks equal-hop ties one scalar
``np.hypot`` at a time, and the stack search that derives a tree's
traversal structures from its parent array.  They are slow on purpose:
they are the oracle ``tests/test_topology_equivalence.py`` pins the array
builders to.

:class:`ReferenceGraph` is the tuple-of-tuples graph they run on;
:func:`build_routing_tree` also runs on a ``PhysicalGraph``.  The tree
builders return a :class:`ReferenceTree`, a record of the tuple fields a
``RoutingTree`` exposes.

The walkers at the end take a ``RoutingTree`` and derive by stack search
what it reads off its levels and preorder: each vertex's root branch (the
watchdog's old branch map), the vertices cut off below down vertices (tree
repair's old walk), and the subtree and internal-vertex lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.network.geometry import pairwise_distances
from repro.network.tree import RoutingTree


def neighbors_within(positions: np.ndarray, radius: float) -> list[list[int]]:
    """Adjacency lists of nodes within ``radius`` of each other.

    A node is never its own neighbour.  This is the physical-connectivity
    predicate of Section 2: ``{n_i, n_j} in E_p iff dist(n_i, n_j) <= rho``.
    """
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    dist = pairwise_distances(positions)
    np.fill_diagonal(dist, np.inf)
    within = dist <= radius
    return [np.flatnonzero(row).tolist() for row in within]


@dataclass(frozen=True)
class ReferenceGraph:
    """The physical graph as per-vertex sorted tuples of neighbours."""

    positions: np.ndarray
    radio_range: float
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        """Total number of vertices including the root."""
        return len(self.adjacency)

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        """Physical neighbours of ``vertex``."""
        return self.adjacency[vertex]

    def reachable_from(self, source: int) -> set[int]:
        """All vertices reachable from ``source`` over multi-hop paths."""
        seen = {source}
        frontier = deque([source])
        while frontier:
            vertex = frontier.popleft()
            for neighbor in self.adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def is_connected(self) -> bool:
        """True iff every vertex can reach every other vertex."""
        return len(self.reachable_from(0)) == self.num_vertices


def build_physical_graph(positions: np.ndarray, radio_range: float) -> ReferenceGraph:
    """Build ``G_p`` from vertex positions and a radio range."""
    adjacency = neighbors_within(positions, radio_range)
    frozen = tuple(tuple(sorted(row)) for row in adjacency)
    return ReferenceGraph(
        positions=np.asarray(positions, dtype=float),
        radio_range=float(radio_range),
        adjacency=frozen,
    )


@dataclass(frozen=True)
class ReferenceTree:
    """A routing tree's tuple fields, as the stack search derives them."""

    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    bottom_up_order: tuple[int, ...]
    subtree_size: tuple[int, ...]
    relays: frozenset[int] = frozenset()


def build_routing_tree(graph, root: int = 0) -> ReferenceTree:
    """Build a minimum-hop Shortest Path Tree rooted at ``root``.

    Breadth-first search from the root assigns every vertex the parent that
    first reached it; among same-depth candidates the physically closest one
    wins.  Raises :class:`TopologyError` if some vertex cannot reach the root.
    """
    n = graph.num_vertices
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")

    depth = [-1] * n
    parent = [-1] * n
    depth[root] = 0
    frontier = deque([root])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in graph.neighbors(vertex):
            if depth[neighbor] == -1:
                depth[neighbor] = depth[vertex] + 1
                parent[neighbor] = vertex
                frontier.append(neighbor)
            elif depth[neighbor] == depth[vertex] + 1:
                # Equal-hop alternative parent: prefer the closer one.
                current = parent[neighbor]
                d_current = _distance(graph.positions, neighbor, current)
                d_candidate = _distance(graph.positions, neighbor, vertex)
                if d_candidate < d_current:
                    parent[neighbor] = vertex

    missing = [v for v in range(n) if depth[v] == -1]
    if missing:
        raise TopologyError(
            f"{len(missing)} vertices cannot reach root {root} "
            f"(first few: {missing[:5]}); increase the radio range"
        )
    return tree_from_parents(root, parent)


def _distance(positions: np.ndarray, a: int, b: int) -> float:
    return float(np.hypot(*(positions[a] - positions[b])))


def tree_from_parents(root: int, parent: list[int]) -> ReferenceTree:
    """Construct a validated :class:`ReferenceTree` from a parent array."""
    n = len(parent)
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")
    for vertex, par in enumerate(parent):
        if vertex != root and not 0 <= par < n:
            raise TopologyError(f"vertex {vertex} has invalid parent {par}")
    return tree_from_parent_array(root, list(parent))


def tree_from_parent_array(
    root: int,
    parent: list[int],
    relays: frozenset[int] = frozenset(),
) -> ReferenceTree:
    """Validate a parent array and derive the traversal structures."""
    n = len(parent)
    if parent[root] != -1:
        raise TopologyError("parent[root] must be -1")

    children: list[list[int]] = [[] for _ in range(n)]
    for vertex, par in enumerate(parent):
        if vertex == root:
            continue
        if not 0 <= par < n:
            raise TopologyError(f"vertex {vertex} has invalid parent {par}")
        children[vertex_parent_check(vertex, par)].append(vertex)

    # Depth-first from the root establishes reachability and acyclicity: a
    # parent array whose edges reach all n vertices from the root is a tree.
    depth = [-1] * n
    depth[root] = 0
    order_top_down = [root]
    stack = [root]
    while stack:
        vertex = stack.pop()
        for child in children[vertex]:
            if depth[child] != -1:
                raise TopologyError(f"vertex {child} reached twice; not a tree")
            depth[child] = depth[vertex] + 1
            order_top_down.append(child)
            stack.append(child)
    unreachable = [v for v in range(n) if depth[v] == -1]
    if unreachable:
        raise TopologyError(
            f"{len(unreachable)} vertices unreachable from root "
            f"(first few: {unreachable[:5]})"
        )

    bottom_up = tuple(reversed(order_top_down))
    subtree = [1] * n
    for vertex in bottom_up:
        if vertex != root:
            subtree[parent[vertex]] += subtree[vertex]

    return ReferenceTree(
        root=root,
        parent=tuple(parent),
        children=tuple(tuple(sorted(kids)) for kids in children),
        depth=tuple(depth),
        bottom_up_order=bottom_up,
        subtree_size=tuple(subtree),
        relays=relays,
    )


def vertex_parent_check(vertex: int, parent: int) -> int:
    """Reject self-parenting; returns ``parent`` unchanged otherwise."""
    if vertex == parent:
        raise TopologyError(f"vertex {vertex} is its own parent")
    return parent


def branch_map(tree: RoutingTree) -> dict[int, int]:
    """Each vertex's top-level ancestor (the root child of its branch)."""
    branch: dict[int, int] = {tree.root: tree.root}
    for vertex in tree.top_down_order:
        if vertex == tree.root:
            continue
        parent = tree.parent[vertex]
        branch[vertex] = vertex if parent == tree.root else branch[parent]
    return branch


def cut_off(tree: RoutingTree, down: np.ndarray | None) -> set[int]:
    """Vertices whose tree path to the root passes a down vertex.

    That is the union of the down vertices' subtrees.  The root's own state
    is the fail-over's business, so a down root cuts nothing here.
    """
    if down is None:
        return set()
    children = tree.children
    stack = [v for v in np.flatnonzero(down).tolist() if v != tree.root]
    cut: set[int] = set()
    while stack:
        vertex = stack.pop()
        if vertex not in cut:
            cut.add(vertex)
            stack.extend(children[vertex])
    return cut


def subtree_vertices(tree: RoutingTree, vertex: int) -> tuple[int, ...]:
    """All vertices of the subtree rooted at ``vertex`` (itself included)."""
    out: list[int] = []
    stack = [vertex]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(tree.children[v])
    return tuple(out)


def internal_vertices(tree: RoutingTree) -> tuple[int, ...]:
    """Vertices with at least one child (these transmit on broadcasts)."""
    return tuple(v for v in range(tree.num_vertices) if tree.children[v])
