"""Every charge path prices a send at the network's one send cost.

The radio model (Section 5.1.4) charges ``s * (alpha + beta * rho^p)`` for
every ``s`` bits sent at the nominal radio range ``rho`` and ``s *
alpha_recv`` for every ``s`` bits received, whoever sends them.  So at the
end of any run each vertex's energy must equal its sent bits times
``send_cost_per_bit(rho)`` plus its received bits times the receive cost.

The run below is faulty enough to use every charge path: convergecast
frames and their ACKs under loss and ARQ, broadcasts, repair probes,
adoptions, membership reports and parked listens, the fail-over election
and hand-over flood after a sink kill, and re-initializations.  The check
reads only the ledger's own counters and the model's formula, so unlike
the reference-walk equivalence tests it shares no code with the paths it
checks: a path left on a wrong constant or a wrong range fails it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticWorkload
from repro.experiments.config import default_algorithms
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
)
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.types import QuerySpec

#: Not the 35 m default, so a path priced at the default range shows.
RANGE = 50.0
SIDE = 400.0
SENSORS = 200
ROUNDS = 10
KILL_ROUND = 4


@pytest.fixture(scope="module")
def deployment():
    graph = connected_random_graph(
        SENSORS + 1, RANGE, np.random.default_rng(1), area_side=SIDE
    )
    return graph, build_routing_tree(graph, root=0)


@pytest.mark.parametrize("name", ["HBC", "IQ", "TAG"])
def test_energy_is_bits_times_the_one_send_cost(deployment, name):
    graph, tree = deployment
    workload = SyntheticWorkload(
        graph.positions, np.random.default_rng(2), area_side=SIDE
    )
    plan = FaultPlan(
        loss=IndependentLoss(0.05),
        churn=ScheduledChurn({KILL_ROUND: (tree.root,)}),
        outages=RandomOutages(0.02),
        rng=np.random.default_rng(3),
    )
    driver = FaultDriver(
        default_algorithms()[name],
        QuerySpec(r_min=workload.r_min, r_max=workload.r_max),
        tree,
        workload,
        plan,
        ArqPolicy(max_retries=2),
        graph=graph,
        radio_range=RANGE,
    )
    driver.run(ROUNDS)

    # The run took every charge path it is meant to.
    assert driver.failover.count == 1
    assert driver.repair.stats.reattach_count > 10
    assert driver.reinits >= 1
    assert driver.net.acks_sent > 0
    assert {"repair", "failover", "initialization"} <= set(driver.net.phase_bits)

    ledger = driver.ledger
    model = ledger.model
    expected = (
        ledger.bits_sent * model.send_cost_per_bit(RANGE)
        + ledger.bits_received * model.recv_cost
    )
    assert (ledger.energy > 0.0).any()
    np.testing.assert_allclose(ledger.energy, expected, rtol=1e-12, atol=0.0)
