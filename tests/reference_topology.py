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
:func:`build_routing_tree` also runs on a ``PhysicalGraph``.
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


def build_routing_tree(graph, root: int = 0) -> RoutingTree:
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
    return tree_from_parents(root, parent, graph.positions)


def _distance(positions: np.ndarray, a: int, b: int) -> float:
    return float(np.hypot(*(positions[a] - positions[b])))


def tree_from_parents(
    root: int,
    parent: list[int],
    positions: np.ndarray | None = None,
) -> RoutingTree:
    """Construct a validated :class:`RoutingTree` from a parent array."""
    n = len(parent)
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")
    for vertex, par in enumerate(parent):
        if vertex != root and not 0 <= par < n:
            raise TopologyError(f"vertex {vertex} has invalid parent {par}")
    if positions is not None:
        pos = np.asarray(positions, dtype=float)
        link = [
            0.0 if v == root else float(np.hypot(*(pos[v] - pos[parent[v]])))
            for v in range(n)
        ]
    else:
        link = [0.0] * n
    return tree_from_parent_links(root, list(parent), link)


def tree_from_parent_links(
    root: int,
    parent: list[int],
    link: list[float],
    relays: frozenset[int] = frozenset(),
) -> RoutingTree:
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

    return RoutingTree(
        root=root,
        parent=tuple(parent),
        link_distance=tuple(link),
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
