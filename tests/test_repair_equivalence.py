"""The batched repair pass is the reference walk, bit for bit.

``TreeRepair`` re-attaches orphans on a per-pass working tree and charges
its traffic as ordered ledger batches; ``tests/reference_repair.py`` keeps
the scalar walk it replaced.  Twin networks share one deployment and one
seeded fault script, and each runs one of the two walks (plus root
fail-over, whose election beacons are batched too).  Every round's
``RepairRound``, the probe count, the routing tree's ``parent`` and
``link_distance`` tuples, the membership hook calls, every ledger array
and ``phase_bits`` must come out identical.  The default energy model
charges every send at the nominal range, so only the
``per_link_distance`` cells can catch a link distance that is wrong in
its last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import VALUE_BITS
from repro.faults import (
    CompositeChurn,
    FaultPlan,
    RandomChurn,
    RandomOutages,
    RootWatchdog,
    ScheduledChurn,
    TreeRepair,
)
from repro.faults.failover import RootFailover
from repro.faults.network import FaultyTreeNetwork
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger

from tests.reference_repair import ReferenceRootFailover, ReferenceTreeRepair

RANGE = 35.0
ROUNDS = 8
#: Mean physical degree of the sampled deployments: sparse enough that
#: some orphans find no parent and park, dense enough to stay connected.
DEGREE = 9.0
LEDGER_ARRAYS = (
    "energy",
    "messages_sent",
    "messages_received",
    "bits_sent",
    "bits_received",
    "values_sent",
)


@dataclass(frozen=True)
class Scenario:
    nodes: int
    seed: int
    parent_metric: str
    heal_patience: int
    per_link_distance: bool
    outage_rate: float
    churn_rate: float
    kill_round: int


class RecordingAlgorithm:
    """Root-side membership hooks that only record their calls."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def detach(self, net, vertex: int) -> None:
        self.calls.append(("detach", vertex))

    def rejoin(self, net, values, vertex: int) -> None:
        self.calls.append(("rejoin", vertex))

    def handover(self, net, old_root: int, new_root: int) -> int:
        self.calls.append(("handover", old_root, new_root))
        return 4 * VALUE_BITS


def deployment(scenario: Scenario):
    side = RANGE * math.sqrt(scenario.nodes * math.pi / DEGREE)
    rng = np.random.default_rng(scenario.seed)
    graph = connected_random_graph(scenario.nodes + 1, RANGE, rng, area_side=side)
    return graph, build_routing_tree(graph, root=0)


def run_twin(scenario: Scenario, graph, tree, repair_cls, failover_cls):
    """Drive one twin through the fault script; returns what it produced."""
    seed = scenario.seed
    plan = FaultPlan(
        churn=CompositeChurn(
            RandomChurn(scenario.churn_rate) if scenario.churn_rate else None,
            ScheduledChurn({scenario.kill_round: (tree.root,)}),
        ),
        outages=RandomOutages(scenario.outage_rate, mean_downtime=3.0),
        rng=np.random.default_rng(seed + 1),
    )
    model = EnergyModel(per_link_distance=scenario.per_link_distance)
    ledger = EnergyLedger(tree.num_vertices, tree.root, model, RANGE)
    net = FaultyTreeNetwork(tree, ledger, plan=plan)
    watchdog = RootWatchdog(tree)
    repair = repair_cls(
        graph,
        net,
        watchdog,
        parent_metric=scenario.parent_metric,
        heal_patience=scenario.heal_patience,
    )
    failover = failover_cls(net, graph, rng=np.random.default_rng(seed + 2))
    algorithm = RecordingAlgorithm()
    links = np.random.default_rng(seed + 3)
    values = np.zeros(tree.num_vertices, dtype=np.int64)
    trees = []
    for round_index in range(ROUNDS):
        net.begin_faults_round(round_index)
        ledger.begin_round()
        failover.maybe_failover(
            round_index, algorithm, repair=repair, watchdog=watchdog
        )
        if failover.root_unavailable() is None:
            repair.repair_round(algorithm, values)
        # Stand-in for the ARQ layer: every live uplink of the repaired
        # tree feeds one sample to the shared link estimator, so the ETX
        # ranking has observed links to work with from round 1 on.
        current = net.tree
        for vertex in current.sensor_nodes:
            up = current.parent[vertex]
            if not plan.is_down(vertex) and not plan.is_down(up):
                net.link_stats.observe(
                    vertex, up, delivered=bool(links.random() > 0.2)
                )
        ledger.end_round()
        trees.append((current.root, current.parent, current.link_distance))
    return repair, failover, algorithm, net, trees


def assert_twins_identical(scenario: Scenario) -> TreeRepair:
    graph, tree = deployment(scenario)
    new = run_twin(scenario, graph, tree, TreeRepair, RootFailover)
    ref = run_twin(scenario, graph, tree, ReferenceTreeRepair, ReferenceRootFailover)
    (repair, failover, algorithm, net, trees) = new
    (ref_repair, ref_failover, ref_algorithm, ref_net, ref_trees) = ref

    assert repair.stats.rounds == ref_repair.stats.rounds
    assert repair.stats.probe_count == ref_repair.stats.probe_count
    assert repair.stats == ref_repair.stats
    assert repair.detached == ref_repair.detached
    assert trees == ref_trees
    assert algorithm.calls == ref_algorithm.calls
    assert failover.events == ref_failover.events
    assert net.phase_bits == ref_net.phase_bits
    for name in LEDGER_ARRAYS:
        ours, theirs = getattr(net.ledger, name), getattr(ref_net.ledger, name)
        assert ours.tobytes() == theirs.tobytes(), name
    history = net.ledger.round_energy_history
    ref_history = ref_net.ledger.round_energy_history
    assert [r.tobytes() for r in history] == [r.tobytes() for r in ref_history]
    return repair


scenarios = st.builds(
    Scenario,
    nodes=st.integers(60, 300),
    seed=st.integers(0, 2**31 - 1),
    parent_metric=st.sampled_from(TreeRepair.PARENT_METRICS),
    heal_patience=st.sampled_from((1, 3)),
    per_link_distance=st.booleans(),
    outage_rate=st.sampled_from((0.02, 0.05, 0.1)),
    churn_rate=st.sampled_from((0.0, 0.01)),
    kill_round=st.integers(2, ROUNDS - 2),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios)
def test_batched_pass_equals_reference_walk(scenario):
    assert_twins_identical(scenario)


@pytest.mark.parametrize("parent_metric", TreeRepair.PARENT_METRICS)
@pytest.mark.parametrize("heal_patience", (1, 3))
def test_per_link_distance_cell(parent_metric, heal_patience):
    """Link lengths reach the ledger: a distance off in its last bit fails."""
    repair = assert_twins_identical(
        Scenario(
            nodes=200,
            seed=20140324,
            parent_metric=parent_metric,
            heal_patience=heal_patience,
            per_link_distance=True,
            outage_rate=0.1,
            churn_rate=0.01,
            kill_round=3,
        )
    )
    stats = repair.stats
    # The cell exercises what it claims to: adoptions, the sink kill's
    # cascade and parked or fallen-back orphans.
    assert stats.reattach_count > 10
    assert stats.fallback_count + stats.parked_rounds > 0
