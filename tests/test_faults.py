"""Unit tests for the fault-injection & recovery subsystem (repro.faults)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.payloads import ValueSetPayload
from repro.errors import ConfigurationError
from repro.faults import (
    ArqPolicy,
    FaultPlan,
    FaultyTreeNetwork,
    GilbertElliottLoss,
    IndependentLoss,
    RandomChurn,
    RootWatchdog,
    ScheduledChurn,
    fault_lineup,
    run_fault_experiment,
)
from repro.faults.plan import LinkLossModel
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.radio.message import ack_cost, message_bits
from repro.sim.engine import CollectionRecord
from repro.types import QuerySpec


class ScriptedLoss(LinkLossModel):
    """Loses exactly the first ``n_lost`` transmissions, then delivers."""

    def __init__(self, n_lost: int) -> None:
        self.n_lost = n_lost
        self.seen = 0

    def lost(self, sender: int, receiver: int, rng) -> bool:
        self.seen += 1
        return self.seen <= self.n_lost


def make_faulty(tree, plan=None, arq=None):
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
    ledger.begin_round()
    return FaultyTreeNetwork(tree, ledger, plan=plan, arq=arq)


def full_contributions(tree):
    return {v: ValueSetPayload(values=(v,)) for v in tree.sensor_nodes}


class TestLossModels:
    def test_independent_loss_validates(self):
        with pytest.raises(ConfigurationError):
            IndependentLoss(1.0)
        with pytest.raises(ConfigurationError):
            IndependentLoss(-0.1)

    def test_independent_zero_never_loses(self, rng):
        model = IndependentLoss(0.0)
        assert not any(model.lost(1, 0, rng) for _ in range(100))

    def test_gilbert_elliott_from_average_matches_rate(self):
        model = GilbertElliottLoss.from_average(0.1, burst_length=8.0)
        assert model.nominal_loss == pytest.approx(0.1)
        # Mean burst length is 1 / p_exit.
        assert 1.0 / model.p_exit_burst == pytest.approx(8.0)

    def test_gilbert_elliott_long_run_rate(self, rng):
        model = GilbertElliottLoss.from_average(0.2, burst_length=5.0)
        losses = sum(model.lost(1, 0, rng) for _ in range(20_000))
        assert losses / 20_000 == pytest.approx(0.2, abs=0.03)

    def test_gilbert_elliott_bursts_cluster(self):
        # In a burst (loss_bad=1) consecutive losses must appear in runs
        # longer than i.i.d. loss of the same rate would typically produce.
        rng = np.random.default_rng(7)
        model = GilbertElliottLoss.from_average(0.2, burst_length=20.0)
        outcomes = [model.lost(1, 0, rng) for _ in range(5_000)]
        longest = run = 0
        for lost in outcomes:
            run = run + 1 if lost else 0
            longest = max(longest, run)
        assert longest >= 8

    def test_gilbert_elliott_state_is_per_link(self, rng):
        model = GilbertElliottLoss(p_enter_burst=0.5, p_exit_burst=0.1)
        model.lost(1, 0, rng)
        assert (1, 0) in model._burst_state
        assert (2, 0) not in model._burst_state

    def test_from_average_rejects_unreachable(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_average(0.5, loss_bad=0.4)


class TestChurnModels:
    def test_random_churn_spares_round_zero(self, rng):
        churn = RandomChurn(rate=1.0)
        assert list(churn.deaths(0, [1, 2, 3], rng)) == []
        assert set(churn.deaths(1, [1, 2, 3], rng)) == {1, 2, 3}

    def test_scheduled_churn_follows_script(self, rng):
        churn = ScheduledChurn({2: (4, 5), 3: (6,)})
        assert list(churn.deaths(1, [4, 5, 6], rng)) == []
        assert list(churn.deaths(2, [4, 5, 6], rng)) == [4, 5]

    def test_plan_does_not_rekill_dead(self, small_tree):
        plan = FaultPlan(churn=ScheduledChurn({1: (3,), 2: (3, 5)}))
        plan.begin_round(small_tree, 1)
        # 3 is already dead; only 5 is newly dead in round 2.
        assert plan.begin_round(small_tree, 2) == frozenset({5})

    def test_plan_accumulates_deaths(self, small_tree):
        plan = FaultPlan(churn=ScheduledChurn({1: (3,), 2: (5,)}))
        plan.begin_round(small_tree, 0)
        assert plan.begin_round(small_tree, 1) == frozenset({3})
        assert plan.begin_round(small_tree, 2) == frozenset({5})
        assert plan.is_dead(3) and plan.is_dead(5)
        assert not plan.is_dead(4)

    def test_root_death_accepted(self, small_tree):
        # The sink may die like any vertex since root fail-over landed —
        # the driver elects a successor instead of refusing the plan.
        plan = FaultPlan(churn=ScheduledChurn({0: (0,)}))
        newly_dead = plan.begin_round(small_tree, 0)
        assert newly_dead == frozenset({0})
        assert plan.is_dead(0) and plan.is_down(0)


class TestArqPolicy:
    def test_validates(self):
        with pytest.raises(ConfigurationError):
            ArqPolicy(max_retries=-1)

    def test_disabled_by_default(self):
        policy = ArqPolicy()
        assert not policy.enabled
        assert policy.max_attempts == 1

    def test_attempts(self):
        assert ArqPolicy(max_retries=2).max_attempts == 3


class TestFaultyNetworkArq:
    def test_retransmission_energy_charged_per_attempt(self, small_tree):
        """Every ARQ attempt costs real energy — the issue's key invariant."""
        # All data frames from the scripted link are lost; with 2 retries
        # the child must transmit 3 times and pay 3 times.
        losses = 7 * 3  # every hop loses all its attempts
        plan = FaultPlan(loss=ScriptedLoss(losses))
        net = make_faulty(small_tree, plan=plan, arq=ArqPolicy(max_retries=2))
        baseline = make_faulty(small_tree, arq=ArqPolicy(max_retries=2))

        payload = ValueSetPayload(values=(6,))
        net.convergecast({6: payload})
        baseline.convergecast({6: payload})

        # Vertex 6 is a leaf at depth 3 (6 -> 4 -> 1 -> 0): only its own hop
        # happens (the payload never reaches 4), but it happens 3 times.
        assert net.ledger.messages_sent[6] == 3
        assert net.retransmissions == 2
        assert net.lost_transmissions == 3
        cost = message_bits(payload.payload_bits())
        assert net.ledger.bits_sent[6] == 3 * cost.total_bits
        # Three sends plus three vain ACK-window listens cost strictly more
        # than the reliable single send + single successful ACK exchange.
        assert net.ledger.energy[6] > baseline.ledger.energy[6]

    def test_ack_traffic_charged_on_success(self, small_tree):
        net = make_faulty(small_tree, arq=ArqPolicy(max_retries=1))
        net.convergecast({6: ValueSetPayload(values=(6,))})
        # Three hops (6->4, 4->1, 1->0), each acknowledged once.
        assert net.acks_sent == 3
        assert net.retransmissions == 0
        ack = ack_cost()
        # The parents paid the ACK sends; bits accounting shows them.
        assert net.ledger.bits_sent[4] >= ack.total_bits

    def test_no_arq_means_no_ack_traffic(self, small_tree):
        net = make_faulty(small_tree, arq=ArqPolicy(max_retries=0))
        reliable = make_faulty(small_tree)
        payload = {6: ValueSetPayload(values=(6,))}
        net.convergecast(dict(payload))
        reliable.convergecast(dict(payload))
        assert net.acks_sent == 0
        assert np.array_equal(net.ledger.energy, reliable.ledger.energy)

    def test_lost_ack_triggers_redundant_retransmission(self, small_tree):
        class LoseAcks(LinkLossModel):
            def lost(self, sender, receiver, rng) -> bool:
                # Parent->child frames are the ACKs on the 6->4 hop.
                return (sender, receiver) == (4, 6)

        plan = FaultPlan(loss=LoseAcks())
        net = make_faulty(small_tree, plan=plan, arq=ArqPolicy(max_retries=2))
        merged = net.convergecast({6: ValueSetPayload(values=(6,))})
        # Data got through every time, but the ACKs never did: the child
        # burns its whole retry budget on frames the parent already has.
        assert merged is not None and 6 in merged.values
        assert net.lost_acks == 3
        assert net.retransmissions == 2
        assert net.lost_transmissions == 0

    def test_arq_recovers_loss(self, small_tree):
        rng = np.random.default_rng(5)
        plan = FaultPlan(loss=IndependentLoss(0.4), rng=rng)
        net = make_faulty(small_tree, plan=plan, arq=ArqPolicy(max_retries=4))
        merged = net.convergecast(full_contributions(small_tree))
        assert merged is not None
        assert len(merged.values) == 7
        assert net.retransmissions > 0

    def test_collection_record_tracks_delivery(self, small_tree):
        # The first bottom-up hop is the deepest vertex (6); losing it
        # drops exactly that contribution.
        plan = FaultPlan(loss=ScriptedLoss(1))
        net = make_faulty(small_tree, plan=plan)
        net.convergecast(full_contributions(small_tree))
        record = net.collection_log[-1]
        assert record.expected == 7
        assert record.delivered == frozenset({1, 2, 3, 4, 5, 7})
        assert record.coverage == pytest.approx(6 / 7)


class TestChurnInNetwork:
    def test_dead_vertex_contributes_nothing(self, small_tree):
        plan = FaultPlan(churn=ScheduledChurn({0: (3,)}))
        net = make_faulty(small_tree, plan=plan)
        net.begin_faults_round(0)
        merged = net.convergecast(full_contributions(small_tree))
        assert 3 not in merged.values
        assert net.ledger.messages_sent[3] == 0
        assert net.live_sensor_nodes() == (1, 2, 4, 5, 6, 7)

    def test_dead_interior_vertex_severs_subtree(self, small_tree):
        # Killing 4 also silences 6 (its only route to the root).
        plan = FaultPlan(churn=ScheduledChurn({0: (4,)}))
        net = make_faulty(small_tree, plan=plan)
        net.begin_faults_round(0)
        merged = net.convergecast(full_contributions(small_tree))
        assert set(merged.values) == {1, 2, 3, 5, 7}
        # 6 transmitted into the void (it cannot know its parent died)...
        assert net.ledger.messages_sent[6] == 1
        # ...but the dead parent paid nothing.
        assert net.ledger.energy[4] == 0.0

    def test_broadcast_pruned_by_dead_interior(self, small_tree):
        plan = FaultPlan(churn=ScheduledChurn({0: (1,)}))
        net = make_faulty(small_tree, plan=plan)
        net.begin_faults_round(0)
        reached = net.broadcast(16)
        # 1 is dead: 3, 4 and 6 miss the flood; 2, 5, 7 still hear it.
        assert reached == 3
        assert net.ledger.messages_received[5] == 1
        assert net.ledger.messages_received[3] == 0

    def test_retire_moves_the_stamp_the_network_keys_its_masks_on(
        self, small_tree
    ):
        """The network keeps its down mask and cut-off cover per plan
        stamp, so each call that changes the dead or down set must move
        the stamp; a retire that left it alone would leave the retired
        vertex up in every mask read after it."""
        plan = FaultPlan()
        net = make_faulty(small_tree, plan=plan)
        stamp = plan.stamp
        net.begin_faults_round(0)
        assert plan.stamp != stamp
        assert net._down_mask() is None
        assert net.broadcast(16) == 7
        stamp = plan.stamp
        plan.retire(4)
        assert plan.stamp != stamp
        assert net._down_mask().tolist() == [v == 4 for v in range(8)]
        assert 4 not in net.live_sensor_nodes()
        # 4 is dead: its subtree (6) misses the flood.
        assert net.broadcast(16) == 5

    def test_broadcast_reaches_all_without_faults(self, small_tree):
        net = make_faulty(small_tree)
        assert net.broadcast(16) == 7


class TestRootWatchdog:
    def record(self, expected, delivered):
        return CollectionRecord(expected=expected, delivered=frozenset(delivered))

    def test_healthy_rounds_never_trigger(self, small_tree):
        dog = RootWatchdog(small_tree, patience=2)
        healthy = self.record(7, {1, 2, 3, 4, 5, 6, 7})
        assert not any(dog.observe(healthy) for _ in range(10))
        assert dog.triggered == 0

    def test_silent_branch_triggers_after_patience(self, small_tree):
        dog = RootWatchdog(small_tree, patience=2)
        # Branch rooted at 1 (vertices 1, 3, 4, 6) goes completely silent.
        partial = self.record(7, {2, 5, 7})
        assert not dog.observe(partial)  # first strike
        assert dog.observe(partial)  # second strike -> re-init
        assert dog.triggered == 1

    def test_recovery_resets_streak(self, small_tree):
        dog = RootWatchdog(small_tree, patience=2)
        partial = self.record(7, {2, 5, 7})
        healthy = self.record(7, {1, 2, 3, 4, 5, 6, 7})
        assert not dog.observe(partial)
        assert not dog.observe(healthy)
        assert not dog.observe(partial)  # streak restarted
        assert dog.observe(partial)

    def test_adopt_accepts_permanent_deaths(self, small_tree):
        dog = RootWatchdog(small_tree, patience=1)
        partial = self.record(7, {2, 5, 7})
        assert dog.observe(partial)  # patience=1 triggers immediately
        dog.adopt(self.record(3, {2, 5, 7}))
        # The shrunken network is the new normal: no more re-init loop.
        assert not dog.observe(self.record(3, {2, 5, 7}))
        # But losing yet another branch still trips it.
        assert dog.observe(self.record(3, {5}))

    def test_full_collection_threshold(self, small_tree):
        dog = RootWatchdog(small_tree)
        assert dog.is_full_collection(self.record(7, set()), live=7)
        # A 3-contributor validation round is not a full collection.
        assert not dog.is_full_collection(self.record(3, {1}), live=7)
        assert not dog.is_full_collection(self.record(0, set()), live=0)

    def test_validates_parameters(self, small_tree):
        with pytest.raises(ConfigurationError):
            RootWatchdog(small_tree, patience=0)


class TestFaultExperiment:
    def run(self, **kwargs):
        defaults = dict(
            loss_rates=(0.0, 0.1),
            retry_budgets=(0, 2),
            num_nodes=30,
            num_rounds=12,
            radio_range=60.0,
        )
        defaults.update(kwargs)
        return run_fault_experiment(fault_lineup(), **defaults)

    def test_covers_all_algorithms_without_raising(self):
        result = self.run()
        names = {p.algorithm for p in result.points}
        assert {"TAG", "POS", "HBC", "IQ", "LCLL-H", "LCLL-S"} <= names
        assert any(n.startswith("SKQ@") for n in names)
        assert any(n.startswith("SK1@") for n in names)
        assert len(result.points) == len(names) * 2 * 2

    def test_lossless_cells_are_clean(self):
        result = self.run(loss_rates=(0.0,), retry_budgets=(0,))
        for point in result.points:
            assert point.lost_transmissions == 0
            assert point.retransmissions == 0
            assert point.reinit_count == 0
            assert point.failure_rate == 0.0
            assert point.delivered_fraction == 1.0

    def test_arq_improves_exactness_under_loss(self):
        result = self.run(loss_rates=(0.1,))
        for name in ("TAG", "POS", "HBC", "IQ"):
            bare = result.cell(name, 0.1, 0)
            arq = result.cell(name, 0.1, 2)
            assert arq.exact_fraction >= bare.exact_fraction
            assert arq.retransmissions > 0

    def test_churn_kills_nodes_and_experiment_survives(self):
        result = self.run(
            loss_rates=(0.05,), retry_budgets=(1,), churn_rate=0.03
        )
        for point in result.points:
            assert point.survivors < 30
            assert point.rounds > 0

    def test_burst_loss_runs(self):
        result = self.run(loss_rates=(0.1,), retry_budgets=(0,), burst_length=6.0)
        assert all(p.rounds > 0 for p in result.points)

    def test_cell_lookup_raises_on_miss(self):
        result = self.run(loss_rates=(0.0,), retry_budgets=(0,))
        with pytest.raises(KeyError):
            result.cell("TAG", 0.5, 9)

    @pytest.mark.parametrize("name", ["HBC", "IQ"])
    def test_reinit_energy_books_attempts_that_drown(self, name):
        """Every initialization after the first books its traffic to
        ``reinit_energy_j``, including an attempt that raises
        ``ProtocolError`` (a re-init whose collection drowns under loss)."""
        from repro import HBC, IQ, SyntheticWorkload, build_routing_tree
        from repro.faults import FaultDriver, RandomOutages
        from repro.network.topology import connected_random_graph

        rng = np.random.default_rng(25)
        graph = connected_random_graph(60, 35.0, rng, area_side=120.0)
        tree = build_routing_tree(graph, root=0)
        workload = SyntheticWorkload(graph.positions, rng, area_side=120.0)
        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        deltas: list[float] = []
        failed: list[bool] = []

        def factory(s):
            algorithm = {"HBC": HBC, "IQ": IQ}[name](s)
            initialize = algorithm.initialize

            def metered(net, values):
                before = float(driver.ledger.energy.sum())
                completed = False
                try:
                    outcome = initialize(net, values)
                    completed = True
                    return outcome
                finally:
                    deltas.append(float(driver.ledger.energy.sum()) - before)
                    failed.append(not completed)

            algorithm.initialize = metered
            return algorithm

        plan = FaultPlan(
            loss=IndependentLoss(0.2), outages=RandomOutages(0.02), seed=25
        )
        driver = FaultDriver(factory, spec, tree, workload, plan, graph=graph)
        driver.run(25)
        assert any(failed[1:]), "the scenario must drown a re-initialization"
        assert driver.reinit_energy_j == pytest.approx(sum(deltas[1:]), rel=1e-12)

    @pytest.mark.parametrize(
        ("seed", "name"),
        [(8, "HBC"), (8, "POS"), (17, "IQ"), (30, "HBC"), (30, "IQ"), (30, "POS")],
    )
    def test_each_reinitialization_counts_once(self, seed, name):
        """``reinits`` rises by at most one per round, and only in a round
        whose initialization completed: a scheduled re-init that drowns and
        the same-round retry that replaces it count once.  In each of these
        runs a scheduled re-init drowned, and both used to count."""
        from repro import HBC, IQ, POS, SyntheticWorkload, build_routing_tree
        from repro.faults import FaultDriver, RandomOutages
        from repro.network.topology import connected_random_graph

        rng = np.random.default_rng(seed)
        graph = connected_random_graph(60, 35.0, rng, area_side=120.0)
        tree = build_routing_tree(graph, root=0)
        workload = SyntheticWorkload(graph.positions, rng, area_side=120.0)
        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        attempts: list[bool] = []  # per initialize call: did it complete?

        def factory(s):
            algorithm = {"HBC": HBC, "IQ": IQ, "POS": POS}[name](s)
            initialize = algorithm.initialize

            def metered(net, values):
                attempts.append(False)
                outcome = initialize(net, values)
                attempts[-1] = True
                return outcome

            algorithm.initialize = metered
            return algorithm

        plan = FaultPlan(
            loss=IndependentLoss(0.2), outages=RandomOutages(0.02), seed=seed
        )
        driver = FaultDriver(factory, spec, tree, workload, plan, graph=graph)
        drowned_then_retried = False
        for round_index in range(25):
            before, first = driver.reinits, len(attempts)
            driver.step(round_index)
            rise = driver.reinits - before
            completed = any(attempts[first:])
            assert rise in (0, 1)
            assert not rise or completed
            drowned_then_retried |= attempts[first:] == [False, True]
        assert drowned_then_retried, "the scenario must drown a scheduled re-init"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_fault_driver_refuses_non_finite_measurement(small_tree, bad):
    """The fault driver stops at the round and vertex of a measurement
    that is not finite, under loss and ARQ as on a clean plan."""
    from repro import TAG
    from repro.faults import FaultDriver

    from tests.helpers import SequenceWorkload

    rounds = [np.linspace(0.0, 70.5, small_tree.num_vertices) for _ in range(4)]
    rounds[3] = rounds[3].copy()
    rounds[3][6] = bad
    driver = FaultDriver(
        TAG,
        QuerySpec(r_max=100),
        small_tree,
        SequenceWorkload(rounds),
        FaultPlan(loss=IndependentLoss(0.1), seed=3),
        ArqPolicy(max_retries=2),
    )
    driver.run(3)
    with pytest.raises(
        ConfigurationError, match=rf"round 3: vertex 6 measured {bad}, not a finite"
    ):
        driver.step(3)


class TestRefinementTermination:
    def test_lcll_slip_raises_instead_of_oscillating(self, small_tree):
        """Corrupted boundary counters must fail fast, not loop forever.

        Message loss can leave LCLL-S believing more values sit below its
        window than exist; the window then slips past the universe edge
        chasing a rank no window satisfies.  The slip budget converts that
        into a ProtocolError the recovery layer handles by re-initializing.
        """
        from repro.baselines.lcll import LCLLSlip
        from repro.errors import ProtocolError

        spec = QuerySpec(r_min=0, r_max=255)
        algorithm = LCLLSlip(spec, window_cells=16)
        net = make_faulty(small_tree)  # no plan/arq: fully reliable
        values = np.array([0, 40, 80, 120, 160, 200, 240, 20])
        algorithm.initialize(net, values)

        # Simulate the after-effect of lost validation deltas: the root's
        # below-window counter exceeds every achievable rank.
        algorithm._below = net.num_sensor_nodes + 50
        with pytest.raises(ProtocolError, match="failed to converge"):
            algorithm.update(net, values)
