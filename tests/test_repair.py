"""Tree repair: orphan re-attach, re-init fallback, repair energy, watchdog.

The deterministic scenarios use hand-placed deployments (radio range 10)
so exactly one repair action is possible, and scripted outages so the
fault schedule is known round by round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.experiments.config import default_algorithms
from repro.faults import (
    AdaptiveArqPolicy,
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    ScheduledOutages,
    TreeRepair,
    fault_lineup,
    run_fault_experiment,
)
from repro.network.topology import build_physical_graph
from repro.network.tree import RoutingTree, tree_from_parents, tree_multi_reparented
from repro.types import QuerySpec

from tests.helpers import SequenceWorkload
from tests.reference_topology import subtree_vertices

RANGE = 10.0


def tree_reparented(tree: RoutingTree, vertex: int, new_parent: int) -> RoutingTree:
    """A copy of ``tree`` with ``vertex`` (and its whole subtree) re-attached
    under ``new_parent``: one orphan adopting a new parent after its old one
    went down.  ``new_parent`` must lie outside the subtree of ``vertex``.
    """
    if vertex == tree.root:
        raise TopologyError("cannot re-parent the root")
    if not 0 <= new_parent < tree.num_vertices:
        raise TopologyError(f"new parent {new_parent} out of range")
    if new_parent in subtree_vertices(tree, vertex):
        raise TopologyError(
            f"new parent {new_parent} lies inside the subtree of {vertex}"
        )
    return tree_multi_reparented(tree, [(vertex, new_parent)])


def deployment(positions, parents):
    positions = np.asarray(positions, dtype=float)
    graph = build_physical_graph(positions, RANGE)
    tree = tree_from_parents(0, list(parents))
    return graph, tree


def make_driver(graph, tree, rounds, plan, *, name="POS", retries=2, **kwargs):
    spec = QuerySpec(r_min=0, r_max=127)
    factory = default_algorithms()[name]
    return FaultDriver(
        factory,
        spec,
        tree,
        SequenceWorkload(rounds),
        plan,
        ArqPolicy(max_retries=retries),
        graph=graph,
        radio_range=RANGE,
        **kwargs,
    )


@pytest.fixture
def reattachable():
    """Vertex 3 parents 4; when 3 goes down, 4 can only re-attach to 2.

    Distances from 4=(8,11): to 3 is 6, to 2 is ~8.5, to 1 is 11 (out of
    range), to the root ~13.6 (out of range).
    """
    return deployment(
        [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 5.0), (8.0, 11.0)],
        [-1, 0, 0, 1, 3],
    )


@pytest.fixture
def isolated_chain():
    """A chain 0-1-2-3; vertex 3's only physical neighbour is 2."""
    return deployment(
        [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0), (24.0, 0.0)],
        [-1, 0, 1, 2],
    )


def chain_rounds(num_vertices, num_rounds):
    rng = np.random.default_rng(42)
    base = rng.integers(10, 100, size=num_vertices)
    return [
        np.clip(base + rng.integers(-2, 3, size=num_vertices), 0, 127)
        for _ in range(num_rounds)
    ]


class TestOrphanReattach:
    def test_reattaches_to_nearest_in_range_live_neighbor(self, reattachable):
        graph, tree = reattachable
        rounds = chain_rounds(5, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        repair_round = reports[2].repair
        assert repair_round.reattached == ((4, 2),)
        assert repair_round.detached == (3,)
        assert driver.net.tree.parent[4] == 2
        # The rewritten tree keeps everything else intact.
        assert driver.net.tree.parent[3] == 1
        assert driver.net.tree.num_vertices == tree.num_vertices
        assert driver.reinits == 0

    def test_answers_stay_exact_through_detach_and_rejoin(self, reattachable):
        graph, tree = reattachable
        rounds = chain_rounds(5, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        from repro.sim.oracle import exact_quantile, quantile_rank

        for report in reports:
            assert report.trustworthy
            participants = list(report.participating)
            k = quantile_rank(len(participants), driver.spec.phi)
            truth = exact_quantile(rounds[report.round_index][participants], k)
            assert report.answer == truth
        # Rounds 2-3: vertex 3 is out, its child 4 re-attached and stays in.
        assert reports[2].participating == (1, 2, 4)
        # Round 4: vertex 3 recovered and rejoined the query.
        assert reports[4].repair.rejoined == (3,)
        assert set(reports[4].participating) == {1, 2, 3, 4}

    def test_repair_traffic_is_charged(self, reattachable):
        graph, tree = reattachable
        rounds = chain_rounds(5, 4)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        driver.run(4)

        stats = driver.repair.stats
        assert stats.reattach_count == 1
        assert stats.repair_energy_j > 0.0
        assert stats.repair_bits > 0
        assert driver.net.phase_bits["repair"] == stats.repair_bits
        # Probe + adopt + reports also show up in the point summary.
        point = driver.point("POS", 0.0, 0.0, 0.0)
        assert point.reattach_count == 1
        assert point.repair_energy_mj == pytest.approx(
            stats.repair_energy_j * 1e3
        )


class TestReinitFallback:
    def test_isolated_orphan_falls_back_to_reinit(self, isolated_chain):
        graph, tree = isolated_chain
        rounds = chain_rounds(4, 5)
        plan = FaultPlan(outages=ScheduledOutages({2: [(2, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(5)

        repair_round = reports[2].repair
        assert repair_round.reattached == ()
        assert repair_round.fallback == (3,)
        # Both the down vertex and its unreachable child leave the query...
        assert set(repair_round.detached) == {2, 3}
        assert reports[2].participating == (1,)
        # ...and the cut triggers the watchdog-style re-initialization.
        assert reports[2].reinitialized
        assert driver.reinits == 1
        # The fallback fires once, not every round the orphan stays cut.
        assert reports[3].repair.fallback == ()
        # After recovery everyone rejoins and answers are exact again.
        assert set(reports[4].participating) == {1, 2, 3}
        assert reports[4].trustworthy

    def test_fallback_orphan_reattaches_when_candidate_appears(self):
        # 3 can reach both 2 and 4; 4 goes down alongside 2, so vertex 3 is
        # stranded at first, then re-attaches once 4 recovers.
        graph, tree = deployment(
            [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0), (24.0, 0.0), (16.0, 5.0)],
            [-1, 0, 1, 2, 1],
        )
        rounds = chain_rounds(5, 6)
        plan = FaultPlan(
            outages=ScheduledOutages({2: [(2, 4), (4, 2)]})
        )
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        assert reports[2].repair.fallback == (3,)
        # Round 4: vertex 4 is back up; 3 re-attaches under it.
        assert reports[4].repair.reattached == ((3, 4),)
        assert driver.net.tree.parent[3] == 4
        assert 3 in reports[4].participating


class TestWatchdogGraceWindow:
    def test_reattach_cancels_pending_watchdog_reinit(self, reattachable):
        graph, tree = reattachable
        rounds = chain_rounds(5, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        assert driver.step(0) is not None
        assert driver.step(1) is not None
        # Simulate a watchdog recommendation pending when the repair lands.
        driver._scheduled_reinit = True
        algorithm_before = driver.algorithm
        report = driver.step(2)

        assert report.repair.reattached == ((4, 2),)
        assert driver.cancelled_reinits == 1
        assert driver.reinits == 0
        assert driver.algorithm is algorithm_before

    def test_cancelled_reinit_costs_no_extra_energy(self, reattachable):
        """The grace-window fix: a cancelled re-init is energy-free.

        Two identical runs, one with a watchdog re-init pending when the
        repair lands — the ledger totals must be identical, pinning that
        the repaired subtree is not *also* re-initialized (double-charged).
        """
        graph, tree = reattachable
        rounds = chain_rounds(5, 6)

        def run(pending: bool) -> float:
            plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
            driver = make_driver(graph, tree, rounds, plan)
            driver.step(0)
            driver.step(1)
            if pending:
                driver._scheduled_reinit = True
            driver.step(2)
            return float(driver.ledger.energy.sum())

        assert run(pending=True) == pytest.approx(run(pending=False))

    def test_retarget_forgives_streak(self, reattachable):
        from repro.faults import RootWatchdog
        from repro.sim.engine import CollectionRecord

        graph, tree = reattachable
        dog = RootWatchdog(tree, patience=2)
        silent_branch = CollectionRecord(expected=4, delivered=frozenset({2}))
        assert not dog.observe(silent_branch)  # strike one of two
        dog.retarget(tree, members=(2,))
        # Without the retarget this second strike would have triggered; the
        # repaired tree starts with a clean slate and a narrowed baseline.
        healthy_now = CollectionRecord(expected=1, delivered=frozenset({2}))
        assert not dog.observe(healthy_now)
        assert dog.triggered == 0


class TestTreeReparenting:
    def test_reparent_rewrites_subtree(self, reattachable):
        _, tree = reattachable
        repaired = tree_reparented(tree, 4, 2)
        assert repaired.parent[4] == 2
        assert 4 in repaired.children[2]
        assert 4 not in repaired.children[3]
        # The original tree is untouched (frozen value semantics).
        assert tree.parent[4] == 3

    def test_reparent_rejects_cycles_and_root(self, reattachable):
        _, tree = reattachable
        with pytest.raises(TopologyError):
            tree_reparented(tree, 0, 1)  # the root has no parent
        with pytest.raises(TopologyError):
            tree_reparented(tree, 1, 3)  # 3 is inside 1's subtree
        with pytest.raises(TopologyError):
            tree_reparented(tree, 4, 4)  # self-adoption

    def test_repair_requires_matching_graph(self, reattachable, small_net):
        graph, _ = reattachable
        with pytest.raises(ConfigurationError):
            TreeRepair(graph, small_net)


class TestSelectiveReprobe:
    """Regression: a failed orphan is only re-probed when an adopt could
    have changed its eligibility (it neighbours the re-attached subtree).

    The old code cleared the failed set after *every* successful adopt, so
    each cascade step re-broadcast the full-range probe beacon for every
    previously failed orphan — quadratic probe energy, all of it charged.
    """

    @pytest.fixture
    def two_branch(self):
        """Orphan 4 is isolated (only neighbour is its down parent 3);
        orphan 6 can re-attach to 2.  Both orphaned in the same round, and
        4 (lower id, same depth) probes first, so its failure is on the
        books when 6's adopt lands."""
        return deployment(
            [
                (0.0, 0.0),   # 0 root
                (8.0, 0.0),   # 1
                (0.0, 8.0),   # 2
                (16.0, 0.0),  # 3 (down rounds 2-3)
                (25.0, 0.0),  # 4 orphan, neighbours: {3} only
                (8.0, 5.0),   # 5 (down rounds 2-3)
                (8.0, 11.0),  # 6 orphan, re-attaches to 2 (8.54 m)
            ],
            [-1, 0, 0, 1, 3, 1, 5],
        )

    def test_probe_count_is_pinned(self, two_branch):
        graph, tree = two_branch
        rounds = chain_rounds(7, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2), (5, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        assert reports[2].repair.reattached == ((6, 2),)
        assert reports[2].repair.fallback == (4,)
        # Round 2: one probe each for 4 (fails) and 6 (adopts).  6's adopt
        # reconnects only {6}, which 4 does not neighbour, so 4 is NOT
        # probed again (the old failed.clear() made this 3).  Round 3: 4 is
        # still orphaned and probes once more.  Total: exactly 3.
        assert driver.repair.stats.probe_count == 3

    def test_reprobe_happens_when_adopt_restores_a_neighbour(self):
        """The flip side: an orphan bordering the re-attached subtree IS
        re-probed, and the cascade re-attaches it in the same round.

        Orphan 4 probes first and fails (its only live neighbour 7 sits in
        6's still-cut branch).  Then 6 adopts 2, reconnecting {6, 7} — and
        because 4 neighbours 7, it is probed again and adopts 7 in the
        same pass: exactly 3 probes, 2 adoptions, one batched rewrite.
        """
        graph, tree = deployment(
            [
                (0.0, 0.0),   # 0 root
                (8.0, 0.0),   # 1
                (0.0, 8.0),   # 2
                (16.0, 0.0),  # 3 (down rounds 2-3)
                (24.0, 0.0),  # 4 orphan, neighbours: {3, 7}
                (8.0, 5.0),   # 5 (down rounds 2-3)
                (8.0, 11.0),  # 6 orphan, re-attaches to 2
                (17.0, 7.0),  # 7 child of 6, neighbours 4
            ],
            [-1, 0, 0, 1, 3, 1, 5, 6],
        )
        rounds = chain_rounds(8, 5)
        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2), (5, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(5)

        assert reports[2].repair.reattached == ((6, 2), (4, 7))
        assert reports[2].repair.fallback == ()
        assert driver.net.tree.parent[6] == 2
        assert driver.net.tree.parent[4] == 7
        # 4 (fails) + 6 (adopts) + 4 again (adopts through restored 7).
        assert driver.repair.stats.probe_count == 3


class TestEtxParentSelection:
    """ETX-ranked adoption picks the clean link; nearest picks the short one."""

    @pytest.fixture
    def fork(self):
        """Orphan 4's candidates: 2 at 7.0 m (near) and 1 at 8.1 m.

        The root itself is out of range (10.6 m), so the orphan must pick
        between the two depth-1 relays.
        """
        return deployment(
            [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 5.0), (7.0, 8.0)],
            [-1, 0, 0, 1, 3],
        )

    @staticmethod
    def _reattach(graph, tree, parent_metric):
        from repro.faults.network import FaultyTreeNetwork
        from repro.radio.energy import EnergyModel
        from repro.radio.ledger import EnergyLedger

        plan = FaultPlan(outages=ScheduledOutages({1: [(3, 2)]}))
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger, plan=plan)
        repair = TreeRepair(graph, net, parent_metric=parent_metric)
        # The ARQ layer has seen the 4 <-> 2 link drop nearly everything.
        for _ in range(30):
            net.link_stats.observe(4, 2, delivered=False)
            net.link_stats.observe(2, 4, delivered=False)
        plan.begin_round(tree, 0)
        plan.begin_round(tree, 1)
        ledger.begin_round()
        down = net._down_mask()
        reattached = repair._reattach_orphans(down, tree.below(down))
        ledger.end_round()
        return reattached, net

    def test_etx_adopts_through_the_clean_link(self, fork):
        graph, tree = fork
        reattached, net = self._reattach(graph, tree, "etx")
        assert reattached == [(4, 1)]
        assert net.tree.parent[4] == 1

    def test_nearest_adopts_the_short_lossy_link(self, fork):
        graph, tree = fork
        reattached, net = self._reattach(graph, tree, "nearest")
        assert reattached == [(4, 2)]
        assert net.tree.parent[4] == 2

    def test_etx_falls_back_to_distance_when_nothing_observed(self, fork):
        graph, tree = fork
        from repro.faults.network import FaultyTreeNetwork
        from repro.radio.energy import EnergyModel
        from repro.radio.ledger import EnergyLedger

        plan = FaultPlan(outages=ScheduledOutages({1: [(3, 2)]}))
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger, plan=plan)
        repair = TreeRepair(graph, net, parent_metric="etx")
        plan.begin_round(tree, 0)
        plan.begin_round(tree, 1)
        ledger.begin_round()
        down = net._down_mask()
        reattached = repair._reattach_orphans(down, tree.below(down))
        ledger.end_round()
        # No link ever observed: ETX would just replay the prior, so the
        # PR 3 nearest-neighbour behaviour is preserved exactly.
        assert reattached == [(4, 2)]

    def test_invalid_metric_rejected(self, fork):
        graph, tree = fork
        from repro.faults.network import FaultyTreeNetwork
        from repro.radio.energy import EnergyModel
        from repro.radio.ledger import EnergyLedger

        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger)
        with pytest.raises(ConfigurationError):
            TreeRepair(graph, net, parent_metric="hops")


class TestAdaptiveArq:
    def test_budget_ramps_with_observed_loss(self):
        arq = AdaptiveArqPolicy(max_retries=5, target_delivery=0.99)
        quiet_attempts = arq.attempts_for(1, 0)
        for _ in range(20):
            arq.observe(1, 0, delivered=False)
        assert arq.attempts_for(1, 0) > quiet_attempts
        for _ in range(40):
            arq.observe(1, 0, delivered=True)
        assert arq.attempts_for(1, 0) <= quiet_attempts
        # Learning is per-directed-link: the reverse link is untouched.
        assert arq.attempts_for(0, 1) == quiet_attempts

    def test_label_and_validation(self):
        assert AdaptiveArqPolicy().label == "adp"
        assert AdaptiveArqPolicy().enabled
        with pytest.raises(ConfigurationError):
            AdaptiveArqPolicy(max_retries=0)
        with pytest.raises(ConfigurationError):
            AdaptiveArqPolicy(target_delivery=1.0)

    def test_adaptive_experiment_cell(self):
        result = run_fault_experiment(
            {"POS": default_algorithms()["POS"]},
            loss_rates=(0.1,),
            num_nodes=20,
            num_rounds=8,
            radio_range=60.0,
            adaptive_arq=True,
        )
        (point,) = result.points
        assert point.retries == "adp"
        assert result.cell("POS", 0.1, "adp") is point

    def test_equality_is_identity_not_config(self):
        """Regression: the inherited frozen-dataclass __eq__ compared
        ``max_retries`` alone, equating policies whose learned per-link
        state differed — and hashing them together in sets/dicts."""
        a = AdaptiveArqPolicy(max_retries=5)
        b = AdaptiveArqPolicy(max_retries=5)
        for _ in range(10):
            a.observe(1, 0, delivered=False)
        assert a == a
        assert a != b  # same config, different learned state
        assert len({a, b}) == 2
        # Differing configuration the old __eq__ ignored entirely:
        assert AdaptiveArqPolicy(target_delivery=0.9) != AdaptiveArqPolicy(
            target_delivery=0.99
        )

    def test_repr_is_truthful(self):
        """Regression: repr printed ``max_retries`` only, hiding the knobs
        that actually govern the adaptive budget."""
        arq = AdaptiveArqPolicy(
            max_retries=4, target_delivery=0.95, smoothing=0.5, prior_loss=0.1
        )
        arq.observe(1, 0, delivered=True)
        text = repr(arq)
        assert "max_retries=4" in text
        assert "target_delivery=0.95" in text
        assert "smoothing=0.5" in text
        assert "prior_loss=0.1" in text
        assert "links_observed=1" in text

    def test_network_adopts_the_policys_estimator(self, reattachable):
        """One shared per-link picture: the network's link_stats IS the
        adaptive policy's estimator, so ARQ, repair and rotation all read
        the same loss state (and nothing double-counts the uplink)."""
        from repro.faults.network import FaultyTreeNetwork
        from repro.radio.energy import EnergyModel
        from repro.radio.ledger import EnergyLedger

        _, tree = reattachable
        arq = AdaptiveArqPolicy()
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger, arq=arq)
        assert net.link_stats is arq.estimator
        # A static policy has no estimator: the network keeps its own.
        ledger2 = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net2 = FaultyTreeNetwork(tree, ledger2, arq=ArqPolicy(max_retries=2))
        assert net2.link_stats is not None


class TestRepairBeatsWatchdogBaseline:
    """The PR's acceptance scenario: 5% i.i.d. loss plus transient churn."""

    @pytest.fixture(scope="class")
    def comparison(self):
        kwargs = dict(
            loss_rates=(0.05,),
            retry_budgets=(2,),
            transient_rate=0.05,
            num_nodes=30,
            num_rounds=25,
            radio_range=60.0,
            seed=20140324,
            watchdog_patience=1,
        )
        lineup = fault_lineup()
        # Pinned to the nearest-neighbour metric this scenario was written
        # for: the claim under test is repair-vs-no-repair, not the ETX
        # ranking (covered by TestEtxParentSelection).
        with_repair = run_fault_experiment(
            lineup, repair=True, repair_metric="nearest", **kwargs
        )
        baseline = run_fault_experiment(lineup, repair=False, **kwargs)
        return with_repair, baseline

    def test_repair_reattaches_and_reinitializes_less(self, comparison):
        with_repair, baseline = comparison
        assert all(p.reattach_count >= 1 for p in with_repair.points)
        assert all(p.reattach_count == 0 for p in baseline.points)
        total_on = sum(p.reinit_count for p in with_repair.points)
        total_off = sum(p.reinit_count for p in baseline.points)
        assert total_on < total_off

    def test_repair_is_more_exact(self, comparison):
        with_repair, baseline = comparison
        for on, off in zip(with_repair.points, baseline.points):
            assert on.algorithm == off.algorithm
            assert on.exact_fraction >= off.exact_fraction

    def test_repair_beats_thrashing_baseline_hotspot(self, comparison):
        with_repair, baseline = comparison
        on = with_repair.cell("LCLL-S", 0.05, 2)
        off = baseline.cell("LCLL-S", 0.05, 2)
        # Where the watchdog baseline actually reacts (per-round full
        # collections make silence visible), repair is cheaper *and* right:
        # fewer re-inits and a cooler hotspot.
        assert on.reinit_count < off.reinit_count
        assert on.hotspot_energy_mj < off.hotspot_energy_mj


class TestPartialPassAccounting:
    """Regression: a membership hook that raises mid-pass used to leave
    the tree rewritten and the ledger charged, yet ``RepairStats`` and the
    round report empty.  The pass now books itself before re-raising."""

    class RaisingDetach:
        """Hooks whose ``detach`` fails, as a negative counter would."""

        def detach(self, net, vertex):
            raise ProtocolError(f"negative count detaching {vertex}")

        def rejoin(self, net, values, vertex):  # pragma: no cover - unused
            raise AssertionError("no rejoin expected")

    def test_raising_hook_keeps_the_pass_on_the_books(self, reattachable):
        from repro.faults.network import FaultyTreeNetwork
        from repro.radio.energy import EnergyModel
        from repro.radio.ledger import EnergyLedger

        graph, tree = reattachable
        plan = FaultPlan(outages=ScheduledOutages({1: [(3, 2)]}))
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger, plan=plan)
        repair = TreeRepair(graph, net)
        plan.begin_round(tree, 0)
        plan.begin_round(tree, 1)
        ledger.begin_round()
        before = float(ledger.energy.sum())
        with pytest.raises(ProtocolError):
            repair.repair_round(self.RaisingDetach(), np.zeros(5))
        ledger.end_round()

        gained = float(ledger.energy.sum()) - before
        assert net.tree.parent[4] == 2
        assert gained > 0.0
        stats = repair.stats
        (record,) = stats.rounds
        assert record.reattached == ((4, 2),)
        # The membership view moved before the hook raised.
        assert record.detached == (3,)
        assert repair.detached == {3}
        assert stats.reattach_count == 1
        assert stats.detach_count == 1
        # Every logged charge reached the ledger: nothing left unflushed.
        assert stats.repair_energy_j == gained
        assert stats.repair_bits == net.phase_bits["repair"] > 0

    def test_driver_report_carries_the_partial_pass(self, reattachable):
        graph, tree = reattachable
        pos = default_algorithms()["POS"]

        def fragile(spec):
            algorithm = pos(spec)
            algorithm.detach = self.RaisingDetach().detach
            return algorithm

        plan = FaultPlan(outages=ScheduledOutages({2: [(3, 2)]}))
        driver = FaultDriver(
            fragile,
            QuerySpec(r_min=0, r_max=127),
            tree,
            SequenceWorkload(chain_rounds(5, 4)),
            plan,
            ArqPolicy(max_retries=2),
            graph=graph,
            radio_range=RANGE,
        )
        reports = driver.run(4)

        report = reports[2]
        assert report.failed and report.reinitialized
        assert report.repair is driver.repair.stats.rounds[2]
        assert report.repair.reattached == ((4, 2),)
        assert report.repair.detached == (3,)
        point = driver.point("POS", 0.0, 0.0, 0.0)
        assert point.reattach_count == 1
        assert point.repair_energy_mj > 0.0


def test_repair_and_failover_make_no_scalar_charges(monkeypatch):
    """Repair and fail-over traffic reaches the ledger only as ordered
    batches: killing the sink of a 1,000-node deployment (one election,
    then a cascade of re-attachments) makes no scalar charge at all."""
    from repro.datasets.synthetic import SyntheticWorkload
    from repro.faults import RandomOutages, ScheduledChurn
    from repro.faults.failover import RootFailover
    from repro.network.routing import build_routing_tree
    from repro.network.topology import connected_random_graph
    from repro.radio.ledger import EnergyLedger

    rng = np.random.default_rng(1000)
    graph = connected_random_graph(1001, 35.0, rng, area_side=200.0)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    plan = FaultPlan(
        churn=ScheduledChurn({2: (tree.root,)}),
        outages=RandomOutages(0.01, mean_downtime=3.0),
        rng=np.random.default_rng(1001),
    )
    driver = FaultDriver(
        default_algorithms()["IQ"],
        QuerySpec(r_min=workload.r_min, r_max=workload.r_max),
        tree,
        workload,
        plan,
        ArqPolicy(max_retries=2),
        graph=graph,
    )

    inside, scalar = [0], []

    def watched(method):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if inside[0]:
                scalar.append(name)
            return method(*args, **kwargs)

        return wrapper

    for name in ("charge_send", "charge_recv"):
        monkeypatch.setattr(
            EnergyLedger, name, counted(name, getattr(EnergyLedger, name))
        )
    monkeypatch.setattr(
        TreeRepair, "repair_round", watched(TreeRepair.repair_round)
    )
    monkeypatch.setattr(
        RootFailover, "maybe_failover", watched(RootFailover.maybe_failover)
    )
    driver.run(4)

    assert driver.failover.count == 1
    assert driver.repair.stats.reattach_count > 10
    assert scalar == []


def test_fault_path_makes_no_scalar_link_estimator_calls(monkeypatch):
    """The faulty convergecast, the repair pass and the fail-over election
    read and write the link table only through its batch methods: killing
    the sink of a 1,000-node deployment under ARQ 2 (loss, outages, one
    election, then a cascade of ETX-ranked re-attachments) makes no
    ``observe``, ``loss``, ``etx``, ``has_estimate`` or ``link_observed``
    call inside any of them."""
    from repro.datasets.synthetic import SyntheticWorkload
    from repro.faults import IndependentLoss, RandomOutages, ScheduledChurn
    from repro.faults.failover import RootFailover
    from repro.faults.network import FaultyTreeNetwork
    from repro.network.linkstats import LinkQualityEstimator
    from repro.network.routing import build_routing_tree
    from repro.network.topology import connected_random_graph

    rng = np.random.default_rng(1000)
    graph = connected_random_graph(1001, 35.0, rng, area_side=200.0)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    plan = FaultPlan(
        loss=IndependentLoss(0.05),
        churn=ScheduledChurn({2: (tree.root,)}),
        outages=RandomOutages(0.01, mean_downtime=3.0),
        rng=np.random.default_rng(1001),
    )
    driver = FaultDriver(
        default_algorithms()["HBC"],
        QuerySpec(r_min=workload.r_min, r_max=workload.r_max),
        tree,
        workload,
        plan,
        ArqPolicy(max_retries=2),
        graph=graph,
    )

    inside, scalar = [0], []

    def watched(method):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if inside[0]:
                scalar.append(name)
            return method(*args, **kwargs)

        return wrapper

    for name in ("observe", "loss", "etx", "has_estimate", "link_observed"):
        monkeypatch.setattr(
            LinkQualityEstimator,
            name,
            counted(name, getattr(LinkQualityEstimator, name)),
        )
    for owner, name in (
        (FaultyTreeNetwork, "convergecast"),
        (TreeRepair, "repair_round"),
        (RootFailover, "maybe_failover"),
    ):
        monkeypatch.setattr(owner, name, watched(getattr(owner, name)))
    driver.run(4)

    assert driver.failover.count == 1
    assert driver.repair.stats.reattach_count > 10
    assert driver.net.link_stats.num_links > 1000
    assert scalar == []
