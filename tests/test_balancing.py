"""Unit tests for randomized routing trees and tree-rotation balancing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pos import POS
from repro.core.iq import IQ
from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import TopologyError
from repro.faults import FaultDriver, FaultPlan
from repro.network.routing import (
    build_randomized_routing_tree,
    build_routing_tree,
)
from repro.network.topology import build_physical_graph, connected_random_graph
from repro.sim.engine import TreeNetwork
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec

from tests.test_vectorized import assert_networks_identical


class TestRandomizedRoutingTree:
    def test_preserves_min_hop_depths(self, random_deployment, rng):
        graph, reference = random_deployment
        randomized = build_randomized_routing_tree(graph, rng, root=0)
        assert randomized.depth == reference.depth

    def test_edges_are_physical(self, random_deployment, rng):
        graph, _ = random_deployment
        tree = build_randomized_routing_tree(graph, rng, root=0)
        for vertex in range(1, tree.num_vertices):
            assert tree.parent[vertex] in graph.neighbors(vertex)

    def test_different_seeds_give_different_trees(self, random_deployment):
        graph, _ = random_deployment
        a = build_randomized_routing_tree(graph, np.random.default_rng(1))
        b = build_randomized_routing_tree(graph, np.random.default_rng(2))
        assert a.parent != b.parent

    def test_disconnected_raises(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        graph = build_physical_graph(positions, 10.0)
        with pytest.raises(TopologyError):
            build_randomized_routing_tree(graph, np.random.default_rng(0))

    def test_invalid_root_raises(self, random_deployment, rng):
        graph, _ = random_deployment
        with pytest.raises(TopologyError):
            build_randomized_routing_tree(graph, rng, root=999)


@pytest.fixture(scope="module")
def balancing_setup():
    rng = np.random.default_rng(61)
    graph = connected_random_graph(151, radio_range=35.0, rng=rng)
    workload = SyntheticWorkload(graph.positions, rng, period=40)
    return graph, workload


def rotating_driver(graph, workload, factory, rng, rotate_every):
    """Tree rotation on a reliable network: ``FaultDriver`` under an empty
    plan, starting from a randomized min-hop tree drawn from ``rng``."""
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return FaultDriver(
        factory,
        spec,
        build_randomized_routing_tree(graph, rng, 0),
        workload,
        FaultPlan(),
        graph=graph,
        repair=False,
        repair_metric="nearest",
        rotate_every=rotate_every,
        rotate_rng=rng,
    )


class TestRotatingTreeRunner:
    """Hotspot balancing by tree rotation, run through ``FaultDriver``.

    The algorithms' state is value-domain, so rotation swaps the tree
    under a running algorithm with no re-initialization.
    """

    def test_exact_across_rotations(self, balancing_setup):
        graph, workload = balancing_setup
        driver = rotating_driver(graph, workload, IQ, np.random.default_rng(1), 7)
        reports = driver.run(40)
        assert driver.rotations == 5
        assert driver.exact == 40
        assert all(report.trustworthy for report in reports)
        assert driver.failures == driver.reinits == 0

    @pytest.mark.parametrize("factory", [IQ, POS])
    def test_rotation_extends_lifetime(self, balancing_setup, factory):
        graph, workload = balancing_setup
        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        fixed = SimulationRunner(build_routing_tree(graph, 0), 35.0)
        fixed_result = fixed.run(factory(spec), workload.values, 60)
        rotating = rotating_driver(
            graph, workload, factory, np.random.default_rng(3), 10
        )
        rotating.run(60)
        assert (
            rotating.ledger.steady_state_lifetime()
            > fixed_result.lifetime_rounds * 0.95
        )

    def test_zero_rebuild_matches_fixed_tree_behaviour(self, balancing_setup):
        """``rotate_every=0`` is ``SimulationRunner`` on the same tree."""
        graph, workload = balancing_setup
        driver = rotating_driver(graph, workload, IQ, np.random.default_rng(4), 0)
        reports = driver.run(20)
        captured = []

        def network(tree, ledger):
            captured.append(TreeNetwork(tree, ledger))
            return captured[-1]

        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        runner = SimulationRunner(driver.net.tree, 35.0, network_factory=network)
        result = runner.run(IQ(spec), workload.values, 20)
        assert [r.answer for r in reports] == result.quantile_series
        assert driver.rotations == 0
        assert_networks_identical(driver.net, captured[0])
        assert len(driver.ledger.round_energy_history) == 20
        for mine, theirs in zip(
            driver.ledger.round_energy_history,
            captured[0].ledger.round_energy_history,
        ):
            assert np.array_equal(mine, theirs)
