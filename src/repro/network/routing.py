"""Routing-tree construction over the physical graph.

The paper's simulations use a Shortest Path Tree (Section 5.1.1): every node
routes to the root along a minimum-hop path.  We break ties among equal-depth
parent candidates by Euclidean distance (preferring the physically closest
parent), which keeps trees deterministic for a given deployment.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.network.linkstats import LinkQualityEstimator
from repro.network.topology import PhysicalGraph, bfs_levels, csr_pairs
from repro.network.tree import RoutingTree, tree_from_parents


def build_routing_tree(graph: PhysicalGraph, root: int = 0) -> RoutingTree:
    """Build a minimum-hop Shortest Path Tree rooted at ``root``.

    Breadth-first search from the root assigns every vertex a parent one hop
    closer to the root; among those candidates the physically closest one
    wins, and a tie goes to the candidate a FIFO-queue search pops first.
    Raises :class:`TopologyError` if some vertex cannot reach the root.
    """
    depth, levels = _min_hop_depths(graph, root)
    pos = graph.positions
    parent = np.full(graph.num_vertices, -1, dtype=np.int64)
    for level, frontier in enumerate(levels[:-1], start=1):
        cand, child = csr_pairs(graph.indptr, graph.indices, frontier)
        keep = depth[child] == level
        cand, child = cand[keep], child[keep]
        delta = pos[child] - pos[cand]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        # Per child: the closest candidate, the earliest pair among equals.
        order = np.lexsort((np.arange(len(child)), dist, child))
        first = np.ones(len(order), dtype=bool)
        first[1:] = child[order[1:]] != child[order[:-1]]
        parent[child[order[first]]] = cand[order[first]]
    return tree_from_parents(root, parent.tolist())


def _min_hop_depths(
    graph: PhysicalGraph, root: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``bfs_levels`` from ``root``; every vertex must be reachable."""
    n = graph.num_vertices
    if not 0 <= root < n:
        raise TopologyError(f"root {root} out of range for {n} vertices")
    depth, levels = bfs_levels(graph.indptr, graph.indices, root)
    missing = np.flatnonzero(depth < 0).tolist()
    if missing:
        raise TopologyError(
            f"{len(missing)} vertices cannot reach root {root} "
            f"(first few: {missing[:5]}); increase the radio range"
        )
    return depth, levels


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
    depth = _min_hop_depths(graph, root)[0].tolist()
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
    return tree_from_parents(root, parent)
