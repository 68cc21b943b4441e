"""Planar geometry helpers for node placement.

Nodes live in a square deployment area (200 m x 200 m by default, Section
5.1.2 of the paper).  Positions are represented as an ``(n, 2)`` float array;
``Point`` is a small convenience wrapper used by user-facing APIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import AREA_SIDE_M
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Point:
    """A position in the deployment plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return float(np.hypot(self.x - other.x, self.y - other.y))

    def as_array(self) -> np.ndarray:
        """Return the point as a length-2 float array."""
        return np.array([self.x, self.y], dtype=float)


def random_positions(
    num_points: int,
    rng: np.random.Generator,
    area_side: float = AREA_SIDE_M,
) -> np.ndarray:
    """Draw ``num_points`` uniform positions in a square of side ``area_side``.

    Returns an ``(num_points, 2)`` array of coordinates in metres.  The paper
    distributes nodes uniformly in a 200 m x 200 m area (Section 5.1.2).
    """
    if num_points <= 0:
        raise ConfigurationError(f"num_points must be positive, got {num_points}")
    if area_side <= 0:
        raise ConfigurationError(f"area_side must be positive, got {area_side}")
    return rng.uniform(0.0, area_side, size=(num_points, 2))


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Return the full Euclidean distance matrix for ``(n, 2)`` positions."""
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError(
            f"positions must have shape (n, 2), got {positions.shape}"
        )
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((deltas**2).sum(axis=-1))


#: Cell side over radio range.  The margin keeps every pair whose computed
#: distance is at most the range in the same or an adjacent cell, however
#: the coordinates round.
CELL_MARGIN = 1.0 + 1e-9

#: (column, row) cell offsets that see every adjacent cell pair once: the
#: cell itself, then the cells above and to the right.
HALF_OFFSETS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def neighbor_csr(positions: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency of nodes within ``radius`` of each other, as a CSR pair.

    Returns ``(indptr, indices)`` (both int64): the neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``, ascending.  A node is never its
    own neighbour.  This is the physical-connectivity predicate of Section
    2: ``{n_i, n_j} in E_p iff dist(n_i, n_j) <= rho``, with the distance
    computed as in :func:`pairwise_distances`.

    The points are binned into square cells a little wider than ``radius``
    and only pairs in the same or adjacent cells are measured, so time and
    memory grow with the number of candidate pairs rather than with n².
    """
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError(
            f"positions must have shape (n, 2), got {positions.shape}"
        )
    n = len(positions)
    cells = np.floor(
        (positions - positions.min(axis=0)) / (radius * CELL_MARGIN)
    ).astype(np.int64)
    # One spare row per column, so a row offset past either edge lands on
    # a key that holds no point.
    stride = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * stride + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    rows, cols = [], []
    for dx, dy in HALF_OFFSETS:
        target = sorted_keys + (dx * stride + dy)
        hi = np.searchsorted(sorted_keys, target, side="right")
        if dx == dy == 0:
            # Within one cell, each pair once: the partners later in order.
            lo = np.arange(1, n + 1)
        else:
            lo = np.searchsorted(sorted_keys, target, side="left")
        counts = hi - lo
        a, b = order[np.repeat(np.arange(n), counts)], order[csr_ranges(lo, counts)]
        close = np.sqrt(((positions[a] - positions[b]) ** 2).sum(-1)) <= radius
        rows += [a[close], b[close]]
        cols += [b[close], a[close]]
    row, col = np.concatenate(rows), np.concatenate(cols)
    edges = np.argsort(row * n + col)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, col[edges]


def csr_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
