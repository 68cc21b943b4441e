"""Unit tests for repro.network.geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import AREA_SIDE_M
from repro.errors import ConfigurationError
from repro.network.geometry import (
    Point,
    neighbor_csr,
    pairwise_distances,
    random_positions,
)


def grid_positions(num_points: int, area_side: float = AREA_SIDE_M) -> np.ndarray:
    """Place ``num_points`` on a near-square lattice of cell centres.

    A deterministic placement for tests.  The lattice is the smallest
    square one with at least ``num_points`` cells; surplus cells are
    dropped from the end.
    """
    if num_points <= 0:
        raise ConfigurationError(f"num_points must be positive, got {num_points}")
    side = int(np.ceil(np.sqrt(num_points)))
    # Cell centres, so no node sits exactly on the area boundary.
    coords = (np.arange(side) + 0.5) * (area_side / side)
    xs, ys = np.meshgrid(coords, coords)
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    return grid[:num_points]


def neighbors_within(positions: np.ndarray, radius: float) -> list[list[int]]:
    """:func:`neighbor_csr` as one neighbour list per node."""
    indptr, indices = neighbor_csr(positions, radius)
    return [indices[lo:hi].tolist() for lo, hi in zip(indptr[:-1], indptr[1:])]


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_as_array_round_trips(self):
        array = Point(2.0, 9.0).as_array()
        assert array.tolist() == [2.0, 9.0]


class TestRandomPositions:
    def test_shape_and_bounds(self, rng):
        positions = random_positions(500, rng)
        assert positions.shape == (500, 2)
        assert positions.min() >= 0.0
        assert positions.max() <= AREA_SIDE_M

    def test_respects_custom_area(self, rng):
        positions = random_positions(100, rng, area_side=10.0)
        assert positions.max() <= 10.0

    def test_rejects_nonpositive_count(self, rng):
        with pytest.raises(ConfigurationError):
            random_positions(0, rng)

    def test_rejects_nonpositive_area(self, rng):
        with pytest.raises(ConfigurationError):
            random_positions(5, rng, area_side=-1.0)

    def test_deterministic_under_seed(self):
        a = random_positions(20, np.random.default_rng(9))
        b = random_positions(20, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestGridPositions:
    def test_exact_square(self):
        positions = grid_positions(9, area_side=30.0)
        assert positions.shape == (9, 2)
        # 3x3 grid with 10 m cells, centres at 5, 15, 25.
        assert sorted(set(positions[:, 0])) == [5.0, 15.0, 25.0]

    def test_non_square_count_truncates(self):
        positions = grid_positions(7)
        assert positions.shape == (7, 2)

    def test_positions_inside_area(self):
        positions = grid_positions(50, area_side=100.0)
        assert positions.min() > 0.0
        assert positions.max() < 100.0

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            grid_positions(0)


class TestPairwiseDistances:
    def test_matches_manual_computation(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        dist = pairwise_distances(positions)
        assert dist[0, 1] == pytest.approx(5.0)
        assert dist[0, 2] == pytest.approx(10.0)
        assert dist[1, 2] == pytest.approx(5.0)

    def test_zero_diagonal_and_symmetry(self, rng):
        positions = random_positions(15, rng)
        dist = pairwise_distances(positions)
        assert np.allclose(np.diag(dist), 0.0)
        assert np.allclose(dist, dist.T)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            pairwise_distances(np.zeros((3, 3)))


class TestNeighborsWithin:
    def test_simple_chain(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        adjacency = neighbors_within(positions, radius=1.6)
        assert adjacency[0] == [1]
        assert adjacency[1] == [0, 2]
        assert adjacency[2] == [1]

    def test_radius_is_inclusive(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert neighbors_within(positions, radius=2.0)[0] == [1]

    def test_node_is_not_its_own_neighbor(self, rng):
        positions = random_positions(10, rng, area_side=5.0)
        adjacency = neighbors_within(positions, radius=100.0)
        for index, neighbors in enumerate(adjacency):
            assert index not in neighbors
            assert len(neighbors) == 9

    def test_rejects_nonpositive_radius(self, rng):
        with pytest.raises(ConfigurationError):
            neighbors_within(random_positions(4, rng), radius=0.0)
