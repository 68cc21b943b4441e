"""Root fail-over: election, grace, hand-over, and the differential invariant.

The mechanics half unit-tests :class:`repro.faults.failover.RootFailover`
through the fault driver — successor election among live root children,
the outage grace window, the no-successor degraded state, retirement of
the deposed sink, and the charged hand-over traffic.  The differential
half kills the root under loss and ARQ for every paper algorithm and pins
the elected successor's answers to the oracle over the survivor
population, deterministic and fuzzed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import default_algorithms
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    FaultyTreeNetwork,
    IndependentLoss,
    RootFailover,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.faults.failover import FAILOVER_PHASE
from repro.faults.watchdog import RootWatchdog
from repro.network.linkstats import LinkQualityEstimator
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.network.tree import tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import CollectionRecord
from repro.types import QuerySpec

from tests.helpers import (
    SequenceWorkload,
    assert_differential_invariant,
    random_rounds,
)

SPEC = QuerySpec(r_min=0, r_max=127)


def _deployment(num_vertices: int = 16, seed: int = 7):
    rng = np.random.default_rng(seed)
    graph = connected_random_graph(
        num_vertices, radio_range=45.0, rng=rng, area_side=100.0
    )
    tree = build_routing_tree(graph, root=0)
    return graph, tree


def _driver(factory, plan, graph, tree, rounds, retries=8, **kwargs):
    return FaultDriver(
        factory,
        SPEC,
        tree,
        SequenceWorkload(rounds),
        plan,
        ArqPolicy(max_retries=retries),
        graph=graph,
        repair=True,
        radio_range=graph.radio_range,
        **kwargs,
    )


@pytest.fixture(scope="module")
def deployment():
    return _deployment()


@pytest.fixture(scope="module")
def rounds(deployment):
    graph, _ = deployment
    rng = np.random.default_rng(99)
    return random_rounds(rng, graph.num_vertices, 12, 10, 117, drift=0.5)


# -- fail-over mechanics ------------------------------------------------------


class TestFailoverMechanics:
    KILL_ROUND = 4

    @pytest.fixture()
    def done(self, deployment, rounds):
        graph, tree = deployment
        plan = FaultPlan(churn=ScheduledChurn({self.KILL_ROUND: (tree.root,)}))
        driver = _driver(
            default_algorithms()["TAG"], plan, graph, tree, rounds
        )
        reports = driver.run(len(rounds))
        return driver, reports

    def test_root_kill_elects_a_live_root_child(self, deployment, done):
        _, tree = deployment
        driver, reports = done
        assert driver.failover.count == 1
        event = reports[self.KILL_ROUND].failover
        assert event is not None
        assert event.reason == "root-dead"
        assert event.old_root == tree.root
        # With no other fault the candidate set is exactly the old root's
        # children, and the winner re-roots the live tree.
        assert set(event.candidates) == set(tree.children[tree.root])
        assert event.new_root in event.candidates
        assert driver.net.tree.root == event.new_root

    def test_deposed_root_is_retired(self, deployment, done):
        _, tree = deployment
        driver, _ = done
        plan = driver.net.plan
        assert plan.is_dead(tree.root)
        assert tree.root not in plan.down
        assert tree.root in driver.repair.detached
        # Warm-standby model: neither the old nor the new sink counts as a
        # battery-powered sensor in the lifetime metrics.
        mask = driver.net.ledger.sensor_mask()
        assert not mask[tree.root]
        assert not mask[driver.net.tree.root]

    def test_handover_traffic_is_charged(self, done):
        driver, reports = done
        event = reports[self.KILL_ROUND].failover
        assert event.handover_bits > 0
        assert event.energy_j > 0.0
        assert driver.net.phase_bits.get(FAILOVER_PHASE, 0) > 0
        point = driver.point("TAG", 0.0, 0.0, 0.0)
        assert point.failovers == 1
        assert point.failover_energy_mj == pytest.approx(event.energy_j * 1e3)

    def test_tracking_resumes_after_failover(self, done):
        _, reports = done
        # The hand-over costs at most the one stale-hints round: later
        # rounds must be trustworthy again, never re-initialized.
        tail = reports[self.KILL_ROUND + 2 :]
        assert tail and all(r.trustworthy for r in tail)
        assert all(not r.reinitialized for r in reports)

    def test_election_is_deterministic(self, deployment, rounds):
        graph, tree = deployment
        events = []
        for _ in range(2):
            plan = FaultPlan(churn=ScheduledChurn({3: (tree.root,)}))
            driver = _driver(
                default_algorithms()["POS"], plan, graph, tree, rounds,
                failover_rng=np.random.default_rng(42),
            )
            driver.run(len(rounds))
            events.append(driver.failover.events[0])
        assert events[0].new_root == events[1].new_root
        assert events[0].candidates == events[1].candidates
        assert events[0].handover_bits == events[1].handover_bits

    def test_near_tie_election_is_the_same_on_every_python(self):
        """Seven links of ETX 1.9 average to 1.9000000000000001 by a left
        fold but to exactly 1.9 by a compensated sum (the builtin ``sum()``
        on Python 3.12+).  The lone 1.9 link must win on every version,
        never the tie-break on subtree size that favours vertex 1."""

        class FixedEtx(LinkQualityEstimator):
            """Pinned ETX values behind the election's batch read."""

            def __init__(self, table):
                super().__init__()
                self.table = table

            def link_etx(self, senders, receivers):
                pairs = list(zip(np.asarray(senders).tolist(), np.asarray(receivers).tolist()))
                return (
                    np.array([self.table.get(pair, 0.0) for pair in pairs]),
                    np.array([pair in self.table for pair in pairs], dtype=bool),
                )

        tree = tree_from_parents(0, [-1, 0, 0] + [1] * 7 + [2])
        table = {(1, leaf): 1.9 for leaf in range(3, 10)}
        table[(2, 10)] = 1.9
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
        net = FaultyTreeNetwork(tree, ledger, link_stats=FixedEtx(table))
        failover = RootFailover(net, rng=np.random.default_rng(0))
        assert math.fsum([1.9] * 7) / 7 == 1.9
        assert failover._elect((1, 2)) == 2

    def test_negative_grace_rejected(self, small_net):
        with pytest.raises(ConfigurationError):
            RootFailover(small_net, grace=-1)


class TestGraceWindow:
    def test_outage_within_grace_rides_degraded(self, deployment, rounds):
        graph, tree = deployment
        plan = FaultPlan(outages=ScheduledOutages({3: [(tree.root, 2)]}))
        driver = _driver(
            default_algorithms()["TAG"], plan, graph, tree, rounds,
            root_grace=2,
        )
        reports = driver.run(len(rounds))
        assert driver.failover.count == 0
        for r in reports[3:5]:
            assert r.degraded and r.degraded_reason == "root-down"
            assert not r.trustworthy
        # The root came back inside its grace: tracking resumes on the
        # same state, no re-initialization.
        assert all(not r.reinitialized for r in reports)
        assert all(r.trustworthy for r in reports[5:])

    def test_outage_past_grace_fails_over(self, deployment, rounds):
        graph, tree = deployment
        plan = FaultPlan(outages=ScheduledOutages({3: [(tree.root, 5)]}))
        driver = _driver(
            default_algorithms()["TAG"], plan, graph, tree, rounds,
            root_grace=1,
        )
        reports = driver.run(len(rounds))
        assert reports[3].degraded_reason == "root-down"
        event = reports[4].failover
        assert event is not None and event.reason == "root-down"
        assert driver.failover.count == 1
        # Fail-over retires the deposed sink outright — its pending outage
        # entry must not resurface as a recovery.
        assert driver.net.plan.is_dead(tree.root)
        assert all(r.trustworthy for r in reports[6:])

    def test_dead_root_ignores_grace(self, deployment, rounds):
        graph, tree = deployment
        plan = FaultPlan(churn=ScheduledChurn({3: (tree.root,)}))
        driver = _driver(
            default_algorithms()["TAG"], plan, graph, tree, rounds,
            root_grace=5,
        )
        reports = driver.run(len(rounds))
        event = reports[3].failover
        assert event is not None and event.reason == "root-dead"

    def test_no_live_successor_waits_degraded(self, deployment, rounds):
        graph, tree = deployment
        sensors = list(tree.sensor_nodes)
        plan = FaultPlan(
            churn=ScheduledChurn({2: (tree.root,)}),
            outages=ScheduledOutages({2: [(v, 2) for v in sensors]}),
        )
        driver = _driver(
            default_algorithms()["POS"], plan, graph, tree, rounds
        )
        reports = driver.run(len(rounds))
        # Rounds 2-3: the root is dead but every sensor is down — there is
        # no one to elect, so the driver serves degraded and retries.
        for r in reports[2:4]:
            assert r.failover is None
            assert r.degraded and not r.trustworthy
        # Round 4: the sensors recover and the election finally runs.
        event = reports[4].failover
        assert event is not None and event.reason == "root-dead"
        assert driver.failover.count == 1


# -- watchdog regressions -----------------------------------------------------


class TestWatchdogRegressions:
    def test_retarget_resets_coverage_baseline(self, small_tree):
        dog = RootWatchdog(small_tree, patience=1)
        sensors = frozenset(small_tree.sensor_nodes)
        assert not dog.observe(CollectionRecord(len(sensors), sensors))
        # Healthy full coverage ratcheted the baseline to 1.0.  Narrowing
        # the membership must drop it back to zero, or the shrunken
        # population's honest coverage reads as a collapse forever.
        dog.retarget(small_tree, members=[6])
        record = CollectionRecord(expected=10, delivered=frozenset({6}))
        assert not dog.observe(record)
        assert dog.triggered == 0
        # The first healthy round on the new tree re-arms the baseline.
        assert dog._baseline_coverage == pytest.approx(record.coverage)

    def test_observe_tolerates_unknown_contributors(self, small_tree):
        dog = RootWatchdog(small_tree, patience=1)
        delivered = frozenset(small_tree.sensor_nodes) | {99}
        # A contributor outside the branch map (adopted after the last
        # retarget) used to KeyError; a delivering vertex is never
        # evidence of silence.
        assert not dog.observe(CollectionRecord(len(delivered), delivered))
        assert dog.triggered == 0


# -- differential invariant across a fail-over --------------------------------


class TestFailoverInvariant:
    """The elected successor must keep serving oracle-exact answers."""

    def test_all_algorithms_survive_a_root_kill(self, deployment, rounds):
        graph, tree = deployment
        assert_differential_invariant(
            default_algorithms(),
            graph,
            tree,
            rounds,
            SPEC,
            plan_factory=FaultPlan,
            root_failover=4,
            min_trustworthy=6,
        )

    def test_root_kill_under_loss_and_arq(self, deployment, rounds):
        graph, tree = deployment
        assert_differential_invariant(
            default_algorithms(),
            graph,
            tree,
            rounds,
            SPEC,
            plan_factory=lambda: FaultPlan(
                loss=IndependentLoss(0.08), seed=20140324
            ),
            retries=8,
            root_failover=5,
            min_trustworthy=3,
        )


FUZZ_GRAPH, FUZZ_TREE = _deployment(num_vertices=12, seed=11)
FUZZ_ROUNDS = random_rounds(
    np.random.default_rng(5), FUZZ_GRAPH.num_vertices, 8, 10, 117
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kill_round=st.integers(min_value=1, max_value=6),
    loss=st.sampled_from([0.0, 0.05, 0.1]),
    retries=st.sampled_from([2, 8]),
    grace=st.integers(min_value=0, max_value=2),
)
def test_root_kill_fuzz_stays_oracle_exact(kill_round, loss, retries, grace):
    """Property: no kill round x loss x ARQ mix corrupts a trustworthy answer.

    The sink dies mid-run under independent loss with a bounded retry
    budget; whatever the fail-over and repair machinery does, every round
    the driver still flags trustworthy must equal the oracle over the
    participating survivors, for every paper algorithm.
    """
    assert_differential_invariant(
        default_algorithms(),
        FUZZ_GRAPH,
        FUZZ_TREE,
        FUZZ_ROUNDS,
        SPEC,
        plan_factory=lambda: (
            FaultPlan(loss=IndependentLoss(loss), seed=20140324)
            if loss
            else FaultPlan()
        ),
        retries=retries,
        root_failover=kill_round,
        root_grace=grace,
        min_trustworthy=1,
    )
