"""Physical connectivity graph ``G_p`` of Section 2.

Vertices are the root (sink) plus all sensor nodes; an undirected edge
connects two vertices whenever their Euclidean distance is at most the radio
range ``rho``.  The root is an ordinary vertex of the physical graph — the
distinction only matters for routing (the tree is rooted there) and for
energy accounting (the root has an infinite supply).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.network.geometry import csr_ranges, neighbor_csr, random_positions


@dataclass(frozen=True)
class PhysicalGraph:
    """Immutable physical-connectivity graph.

    Attributes:
        positions: ``(n, 2)`` array of vertex coordinates in metres.
        radio_range: radio range ``rho`` in metres.
        indptr, indices: the adjacency in CSR form (int64); the physical
            neighbours of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``,
            ascending.
    """

    positions: np.ndarray
    radio_range: float
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        """Total number of vertices including the root."""
        return len(self.indptr) - 1

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        """Physical neighbours of ``vertex``, ascending."""
        return tuple(self.indices[self.indptr[vertex] : self.indptr[vertex + 1]].tolist())

    def reachable_from(self, source: int) -> set[int]:
        """All vertices reachable from ``source`` over multi-hop paths."""
        depth, _ = bfs_levels(self.indptr, self.indices, source)
        return set(np.flatnonzero(depth >= 0).tolist())

    def is_connected(self) -> bool:
        """True iff every vertex can reach every other vertex."""
        depth, _ = bfs_levels(self.indptr, self.indices, 0)
        return bool((depth >= 0).all())


def csr_pairs(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, neighbour)`` for every neighbour of every vertex in ``rows``:
    in the order of ``rows``, then in adjacency order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return np.repeat(rows, counts), indices[csr_ranges(starts, counts)]


def bfs_levels(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Level-synchronous breadth-first search over a CSR adjacency.

    Returns the hop depth of every vertex (-1 where ``source`` cannot reach)
    and one frontier array per level, ``levels[0] == [source]``.  Each
    frontier lists its vertices in order of discovery: the previous frontier
    in its order, each vertex's neighbours in adjacency order — the order a
    FIFO-queue search pops them in.

    A vertex reached several times joins at its first occurrence: each
    vertex keeps its smallest position in the level's reached list, and
    the list keeps the entries at those positions.  A vertex is reached
    in one level only, so the per-vertex array never needs resetting.
    """
    depth = np.full(len(indptr) - 1, -1, dtype=np.int64)
    depth[source] = 0
    first = np.full(len(depth), len(indices), dtype=np.int64)
    levels = [np.array([source], dtype=np.int64)]
    while True:
        _, reached = csr_pairs(indptr, indices, levels[-1])
        reached = reached[depth[reached] < 0]
        if not reached.size:
            return depth, levels
        at = np.arange(len(reached))
        np.minimum.at(first, reached, at)
        frontier = reached[first[reached] == at]
        depth[frontier] = len(levels)
        levels.append(frontier)


def build_physical_graph(positions: np.ndarray, radio_range: float) -> PhysicalGraph:
    """Build ``G_p`` from vertex positions and a radio range.

    Args:
        positions: ``(n, 2)`` coordinates of all vertices (root included).
        radio_range: radio range ``rho`` in metres; must be positive.
    """
    indptr, indices = neighbor_csr(positions, radio_range)
    return PhysicalGraph(
        positions=np.asarray(positions, dtype=float),
        radio_range=float(radio_range),
        indptr=indptr,
        indices=indices,
    )


def connected_random_graph(
    num_vertices: int,
    radio_range: float,
    rng: np.random.Generator,
    area_side: float | None = None,
    max_attempts: int = 200,
) -> PhysicalGraph:
    """Sample uniform positions until the physical graph is connected.

    The paper assumes every node can reach the root over multiple hops
    (Section 2); sparse random deployments occasionally violate this, so the
    experiment harness resamples.  Raises :class:`TopologyError` after
    ``max_attempts`` failures (e.g. when ``radio_range`` is far too small for
    the node density).
    """
    if max_attempts <= 0:
        raise ConfigurationError(f"max_attempts must be positive, got {max_attempts}")
    kwargs = {} if area_side is None else {"area_side": area_side}
    for _ in range(max_attempts):
        positions = random_positions(num_vertices, rng, **kwargs)
        graph = build_physical_graph(positions, radio_range)
        if graph.is_connected():
            return graph
    raise TopologyError(
        f"could not sample a connected deployment of {num_vertices} vertices "
        f"with radio range {radio_range} m in {max_attempts} attempts"
    )
