"""The batched repair pass is the reference walk, bit for bit.

``TreeRepair`` re-attaches orphans on a per-pass working tree and charges
its traffic as ordered ledger batches; ``tests/reference_repair.py`` keeps
the scalar walk it replaced.  Twin networks share one deployment and one
seeded fault script, and each runs one of the two walks (plus root
fail-over, whose election beacons are batched too).  Every round's
``RepairRound``, the probe count, the routing tree's root and ``parent``
tuple, the membership hook calls, every ledger array and ``phase_bits``
must come out identical.  Every send costs the one per-bit price of the
nominal radio range, so the ledgers pin who sends and receives how many
bits, and in which order each vertex adds its charges.
"""

from __future__ import annotations

import math
from collections import Counter
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
from repro.faults.repair import _ProbeLinks
from repro.faults.network import ArqPolicy, FaultyTreeNetwork
from repro.faults.plan import IndependentLoss
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger

from tests.batch_kinds import CountBatch
from tests.reference_engine import ReferenceFaultyTreeNetwork
from tests.reference_repair import ReferenceRootFailover, ReferenceTreeRepair

RANGE = 35.0
ROUNDS = 8
#: Mean physical degree of the sampled deployments: sparse enough that
#: some orphans find no parent and park, dense enough to stay connected.
DEGREE = 9.0
#: The end-to-end benchmark's density (1,000 sensors on a 200 m field):
#: about 96 neighbours each, so a sink kill orphans a wave of them.
BENCH_DEGREE = 1000 * math.pi * RANGE**2 / 200.0**2
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
    outage_rate: float
    churn_rate: float
    kill_round: int
    degree: float = DEGREE


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
    side = RANGE * math.sqrt(scenario.nodes * math.pi / scenario.degree)
    rng = np.random.default_rng(scenario.seed)
    graph = connected_random_graph(scenario.nodes + 1, RANGE, rng, area_side=side)
    return graph, build_routing_tree(graph, root=0)


def run_twin(
    scenario: Scenario,
    graph,
    tree,
    repair_cls,
    failover_cls,
    net_cls=None,
):
    """Drive one twin through the fault script; returns what it produced.

    Without ``net_cls`` a scalar stand-in feeds the link table; with it,
    the twin runs on that network class under i.i.d. loss and ARQ 2, and
    one real convergecast per round feeds it.
    """
    seed = scenario.seed
    plan = FaultPlan(
        loss=None if net_cls is None else IndependentLoss(0.1),
        churn=CompositeChurn(
            RandomChurn(scenario.churn_rate) if scenario.churn_rate else None,
            ScheduledChurn({scenario.kill_round: (tree.root,)}),
        ),
        outages=RandomOutages(scenario.outage_rate, mean_downtime=3.0),
        rng=np.random.default_rng(seed + 1),
    )
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
    if net_cls is None:
        net = FaultyTreeNetwork(tree, ledger, plan=plan)
    else:
        net = net_cls(tree, ledger, plan=plan, arq=ArqPolicy(max_retries=2))
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
        current = net.tree
        if net_cls is not None:
            # Every live sensor counts itself up the repaired tree: the
            # walk's batch replay writes the link table repair reads.
            net.convergecast(
                CountBatch({v: 1 for v in current.sensor_nodes if not plan.is_down(v)})
            )
        else:
            # Stand-in for the ARQ layer: every live uplink of the repaired
            # tree feeds one sample to the shared link estimator, so the
            # ETX ranking has observed links to work with from round 1 on.
            for vertex in current.sensor_nodes:
                up = current.parent[vertex]
                if not plan.is_down(vertex) and not plan.is_down(up):
                    net.link_stats.observe(
                        vertex, up, delivered=bool(links.random() > 0.2)
                    )
        ledger.end_round()
        trees.append((current.root, current.parent))
    return repair, failover, algorithm, net, trees


def assert_twins_identical(scenario: Scenario, walks: bool = False) -> TreeRepair:
    """With ``walks``, the reference twin also runs the per-hop reference
    walk and the other one the batched walk."""
    graph, tree = deployment(scenario)
    new = run_twin(
        scenario,
        graph,
        tree,
        TreeRepair,
        RootFailover,
        FaultyTreeNetwork if walks else None,
    )
    ref = run_twin(
        scenario,
        graph,
        tree,
        ReferenceTreeRepair,
        ReferenceRootFailover,
        ReferenceFaultyTreeNetwork if walks else None,
    )
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
    assert net.link_stats.table() == ref_net.link_stats.table()
    assert net.link_stats.observations == ref_net.link_stats.observations
    return repair


scenarios = st.builds(
    Scenario,
    nodes=st.integers(60, 300),
    seed=st.integers(0, 2**31 - 1),
    parent_metric=st.sampled_from(TreeRepair.PARENT_METRICS),
    heal_patience=st.sampled_from((1, 3)),
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
def test_sink_kill_cascade_cell(parent_metric, heal_patience):
    """A deterministic 200-node cell: outages, churn and the sink killed
    at round 3, so the fail-over's orphans cascade through repair."""
    repair = assert_twins_identical(
        Scenario(
            nodes=200,
            seed=20140324,
            parent_metric=parent_metric,
            heal_patience=heal_patience,
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


@pytest.mark.parametrize("parent_metric", TreeRepair.PARENT_METRICS)
@pytest.mark.parametrize("heal_patience", (1, 3))
def test_dense_sink_kill_wave_cell(parent_metric, heal_patience, monkeypatch):
    """At the benchmark's density the sink kill orphans a wave: the kill
    round re-attaches dozens of orphans, each adoption rooting up vertices
    that neighbour the orphans still waiting, and some orphan that failed
    earlier in a pass is probed again after a neighbour's adoption."""
    probes: list[Counter] = []
    best, reattach = _ProbeLinks.best, TreeRepair._reattach_orphans

    def counted_best(self, orphan):
        probes[-1][orphan] += 1
        return best(self, orphan)

    def counted_reattach(self, *args):
        probes.append(Counter())
        return reattach(self, *args)

    monkeypatch.setattr(_ProbeLinks, "best", counted_best)
    monkeypatch.setattr(TreeRepair, "_reattach_orphans", counted_reattach)
    kill_round = 3
    repair = assert_twins_identical(
        Scenario(
            nodes=400,
            seed=2,
            parent_metric=parent_metric,
            heal_patience=heal_patience,
            outage_rate=0.05,
            churn_rate=0.01,
            kill_round=kill_round,
            degree=BENCH_DEGREE,
        )
    )
    assert len(repair.stats.rounds[kill_round].reattached) >= 30
    assert any(count > 1 for counts in probes for count in counts.values())


@pytest.mark.parametrize("seed", (7, 20140324))
def test_real_walks_feed_the_etx_ranking(seed):
    """Each twin runs one i.i.d.-loss ARQ-2 convergecast per round, the
    reference twin on the per-hop reference walk and the other on the
    batched walk, so repair's and the election's ETX reads see tables the
    batch replay wrote on re-parented trees."""
    repair = assert_twins_identical(
        Scenario(
            nodes=200,
            seed=seed,
            parent_metric="etx",
            heal_patience=3,
            outage_rate=0.05,
            churn_rate=0.01,
            kill_round=3,
        ),
        walks=True,
    )
    assert repair.stats.reattach_count > 10
    assert repair.net.link_stats.num_links > 300
