"""Routing-tree construction over the physical graph.

The paper's simulations use a Shortest Path Tree (Section 5.1.1): every node
routes to the root along a minimum-hop path.  We break ties among equal-depth
parent candidates by Euclidean distance (preferring the physically closest
parent), which keeps trees deterministic for a given deployment.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.errors import TopologyError
from repro.network.linkstats import LinkQualityEstimator
from repro.network.topology import PhysicalGraph
from repro.network.tree import RoutingTree, tree_from_parents


def build_routing_tree(graph: PhysicalGraph, root: int = 0) -> RoutingTree:
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


def build_randomized_routing_tree(
    graph: PhysicalGraph,
    rng: "np.random.Generator",
    root: int = 0,
    link_stats: "LinkQualityEstimator | None" = None,
    avoid: frozenset[int] | set[int] = frozenset(),
) -> RoutingTree:
    """A min-hop tree with randomized tie-breaks among parent candidates.

    Every vertex keeps its BFS depth and picks among all neighbours one hop
    closer to the root.  Re-sampling this tree spreads the forwarding load
    over different hotspot candidates — the basis of tree rotation
    (``FaultDriver``'s ``rotate_every``).

    By default the pick is uniform.  Two knobs make rotation fault-aware:

    * ``link_stats`` — an estimator whose :meth:`~repro.network.linkstats.
      LinkQualityEstimator.etx` weights the sampling by ``1 / ETX``, so a
      link observed to drop frames is proportionally less likely to carry
      the rotated tree (and never categorically excluded: estimates decay,
      and a uniformly bad neighbourhood still needs a parent);
    * ``avoid`` — vertices that must not be chosen as parents when any
      alternative exists (e.g. nodes currently down).  When *every*
      candidate of a vertex is in ``avoid``, the pick falls back to the
      full candidate set — the child's subtree will be orphaned either way
      and the repair layer deals with it.

    Because every vertex still parents one hop closer to the root, any
    combination of picks yields a valid min-hop tree (no cycles possible).
    """
    n = graph.num_vertices
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")

    depth = [-1] * n
    depth[root] = 0
    frontier = deque([root])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in graph.neighbors(vertex):
            if depth[neighbor] == -1:
                depth[neighbor] = depth[vertex] + 1
                frontier.append(neighbor)

    missing = [v for v in range(n) if depth[v] == -1]
    if missing:
        raise TopologyError(
            f"{len(missing)} vertices cannot reach root {root} "
            f"(first few: {missing[:5]}); increase the radio range"
        )

    parent = [-1] * n
    for vertex in range(n):
        if vertex == root:
            continue
        candidates = [
            neighbor
            for neighbor in graph.neighbors(vertex)
            if depth[neighbor] == depth[vertex] - 1
        ]
        if avoid:
            preferred = [c for c in candidates if c not in avoid]
            if preferred:
                candidates = preferred
        if link_stats is not None and len(candidates) > 1:
            weights = np.array(
                [1.0 / link_stats.etx(vertex, c) for c in candidates]
            )
            choice = rng.choice(len(candidates), p=weights / weights.sum())
            parent[vertex] = int(candidates[int(choice)])
        else:
            parent[vertex] = int(candidates[rng.integers(0, len(candidates))])
    return tree_from_parents(root, parent, graph.positions)


def build_min_energy_tree(graph: PhysicalGraph, root: int = 0) -> RoutingTree:
    """Build a tree minimising summed link distance to the root (Dijkstra).

    Not used by the paper's headline experiments (they use min-hop SPTs) but
    provided for ablations: with a distance-dependent amplifier, shorter
    links cost less per bit.
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
            candidate = vertex_cost + _distance(graph.positions, vertex, neighbor)
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
    return tree_from_parents(root, parent, graph.positions)


def _distance(positions: np.ndarray, a: int, b: int) -> float:
    return float(np.hypot(*(positions[a] - positions[b])))
