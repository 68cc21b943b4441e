"""Bit-for-bit equivalence of the array paths and the per-hop reference.

Every test runs the same scenario twice — on the per-vertex reference walk
in ``tests/reference_engine.py`` and on the package's struct-of-arrays
convergecast and broadcast — and asserts the ledgers, logs, counters and
answers are *identical*, floats included.  The scenarios sweep the same
axes the differential invariant harness covers: payload shape (mixed-size
objects, empty, and every column-batch kind), virtual vertices,
energy-model ablations, link loss (i.i.d. and bursty) with static and
learning ARQ, churn and outages with broadcast pruning, tree repair,
rotation and root fail-over via the full fault driver, and the CLI's fault
slices.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.errors import ProtocolError
from repro.experiments.config import default_algorithms
from repro.faults import AdaptiveArqPolicy, ArqPolicy, FaultDriver, FaultPlan
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import (
    GilbertElliottLoss,
    IndependentLoss,
    LinkLossModel,
    RandomChurn,
    RandomOutages,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.network.topology import build_physical_graph
from repro.network.tree import RoutingTree, tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Payload, TreeNetwork
from repro.types import QuerySpec

from tests.batch_kinds import KINDS, CountBatch, CountPayload, make_batch
from tests.helpers import (
    SequenceWorkload,
    assert_differential_invariant,
    states_equal,
)
from tests.reference_engine import (
    ReferenceFaultyTreeNetwork,
    ReferenceTreeNetwork,
    reference_drivers,
)

RADIO_RANGE = 40.0


@dataclass(frozen=True)
class SizedPayload(Payload):
    """Merge-by-union payload whose size grows with its value count."""

    values: frozenset[int]

    def merged_with(self, other: "SizedPayload") -> "SizedPayload":
        return SizedPayload(self.values | other.values)

    def payload_bits(self) -> int:
        return 8 * len(self.values)

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return not self.values


def random_tree(n: int, seed: int = 5) -> RoutingTree:
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, 30.0, size=(n, 2))  # unused: keeps the parent draws
    parents = [-1] + [int(rng.integers(0, v)) for v in range(1, n)]
    return tree_from_parents(0, parents)


def make_net(
    reference: bool,
    tree: RoutingTree,
    model: EnergyModel | None = None,
    virtual: frozenset[int] = frozenset(),
) -> TreeNetwork:
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=model if model is not None else EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    cls = ReferenceTreeNetwork if reference else TreeNetwork
    return cls(tree, ledger, virtual_vertices=virtual)


def assert_ledgers_identical(a: EnergyLedger, b: EnergyLedger) -> None:
    """Bitwise equality of every ledger array, energy floats included."""
    assert np.array_equal(a.energy, b.energy), (
        f"energy differs by {np.abs(a.energy - b.energy).max()}"
    )
    for field in (
        "messages_sent",
        "messages_received",
        "bits_sent",
        "bits_received",
        "values_sent",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert len(a.round_energy_history) == len(b.round_energy_history)
    for i, (ra, rb) in enumerate(
        zip(a.round_energy_history, b.round_energy_history)
    ):
        assert np.array_equal(ra, rb), f"round {i} energy differs"


def assert_networks_identical(a: TreeNetwork, b: TreeNetwork) -> None:
    assert_ledgers_identical(a.ledger, b.ledger)
    assert a.exchanges == b.exchanges
    assert a.phase_bits == b.phase_bits
    assert a.collection_log == b.collection_log


def sized_contributions(
    tree: RoutingTree, round_index: int
) -> dict[int, SizedPayload]:
    """Deterministic mixed-size contributions; some silent, some empty."""
    contributions: dict[int, SizedPayload] = {}
    for vertex in range(tree.num_vertices):
        if (vertex + round_index) % 5 == 0:
            continue  # silent vertex
        if (vertex + round_index) % 7 == 0:
            contributions[vertex] = SizedPayload(frozenset())  # empty
            continue
        width = 1 + (vertex + round_index) % 4
        contributions[vertex] = SizedPayload(
            frozenset(range(vertex, vertex + width))
        )
    return contributions


class TestLosslessEquivalence:
    def run_rounds(self, reference: bool, model: EnergyModel | None = None):
        tree = random_tree(60)
        net = make_net(reference, tree, model=model)
        answers = []
        for r in range(6):
            net.ledger.begin_round()
            net.phase = ("initialization", "refinement")[r % 2]
            answers.append(net.convergecast(sized_contributions(tree, r)))
            net.broadcast(16 + 8 * r)
            net.ledger.end_round()
        return net, answers

    def test_object_payloads_identical_across_cores(self):
        ref_net, ref_answers = self.run_rounds(True)
        net, answers = self.run_rounds(False)
        assert_networks_identical(ref_net, net)
        assert [a.values for a in ref_answers] == [a.values for a in answers]

    def test_idle_model(self):
        model = EnergyModel(idle_cost_per_round=1e-6)
        ref_net, ref_answers = self.run_rounds(True, model=model)
        net, answers = self.run_rounds(False, model=model)
        assert_networks_identical(ref_net, net)
        assert ref_answers[-1].values == answers[-1].values

    def test_uniform_payloads_identical_across_cores(self):
        """Fixed-size counts, as a column batch defined outside the package."""
        tree = random_tree(80, seed=9)
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree)
            for r in range(5):
                counts = {
                    v: 1 + (v + r) % 3
                    for v in tree.sensor_nodes
                    if (v + r) % 6 != 0
                }
                answer = net.convergecast(CountBatch(counts))
                assert answer.count == sum(counts.values())
            nets[reference] = net
        assert_networks_identical(nets[True], nets[False])

    def test_mixed_payload_types_fall_back_identically(self):
        """Mixed payload classes in one mapping merge per object.

        ``WideCount`` merges fine with ``CountPayload`` but is a different
        class; the object convergecast never looks at classes, and still
        matches the reference exactly.
        """

        class WideCount(CountPayload):
            pass

        tree = random_tree(40, seed=3)
        answers = {}
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree)
            contributions: dict[int, Payload] = {
                v: CountPayload(1) for v in tree.sensor_nodes
            }
            for v in sorted(contributions)[::3]:
                contributions[v] = WideCount(1)
            answers[reference] = net.convergecast(contributions)
            nets[reference] = net
        assert answers[True].count == answers[False].count
        assert_networks_identical(nets[True], nets[False])

    @pytest.mark.parametrize("kind", ["validation", "histogram", "delta"])
    def test_paper_batches_identical_across_cores(self, kind):
        tree = random_tree(70, seed=14)
        nets, answers = {}, {}
        for reference in (True, False):
            net = make_net(reference, tree)
            rng = np.random.default_rng(41)
            answers[reference] = [
                net.convergecast(make_batch(kind, rng, tree)) for _ in range(6)
            ]
            nets[reference] = net
        assert answers[True] == answers[False]
        assert_networks_identical(nets[True], nets[False])

    def test_empty_convergecast_identical(self):
        tree = random_tree(20, seed=1)
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree)
            assert net.convergecast({}) is None
            assert (
                net.convergecast(
                    {v: SizedPayload(frozenset()) for v in tree.sensor_nodes}
                )
                is None
            )
            assert net.phase_bits == {"other": 0}
            assert [rec.expected for rec in net.collection_log] == [0, 0]
            nets[reference] = net
        assert_networks_identical(nets[True], nets[False])

    def test_root_contribution_merged_without_radio(self):
        tree = random_tree(25, seed=2)
        for reference in (True, False):
            net = make_net(reference, tree)
            answer = net.convergecast(CountBatch({tree.root: 5}))
            assert answer.count == 5
            assert net.ledger.totals().bits_sent == 0

    def test_virtual_vertices_identical_and_uncharged(self):
        tree = random_tree(30, seed=8)
        virtual = frozenset(
            v for v in tree.sensor_nodes if tree.is_leaf(v)
        )
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree, virtual=virtual)
            for r in range(4):
                net.convergecast(sized_contributions(tree, r))
                net.broadcast(32)
            assert all(net.ledger.energy[v] == 0.0 for v in virtual)
            # The columnar fold exercises its own virtual masking.
            net.convergecast(CountBatch({v: 1 for v in tree.sensor_nodes}))
            nets[reference] = net
        assert_networks_identical(nets[True], nets[False])

    def test_broadcast_identical_including_zero_bits(self):
        tree = random_tree(50, seed=4)
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree)
            assert net.broadcast(0) == tree.num_vertices - 1
            assert net.broadcast(4096) == tree.num_vertices - 1
            with pytest.raises(ProtocolError):
                net.broadcast(-1)
            nets[reference] = net
        assert_networks_identical(nets[True], nets[False])

    def test_retarget_refreshes_vector_state(self):
        tree = random_tree(30, seed=6)
        rng = np.random.default_rng(17)
        rng.uniform(0.0, 10.0, size=(29, 2))  # unused: keeps the parent draws
        reparented = tree_from_parents(
            0, [-1] + [int(rng.integers(0, v)) for v in range(1, 30)]
        )
        nets = {}
        for reference in (True, False):
            net = make_net(reference, tree)
            net.convergecast(sized_contributions(tree, 0))
            net.retarget(reparented)
            net.convergecast(sized_contributions(reparented, 1))
            net.broadcast(64)
            nets[reference] = net
        assert_networks_identical(nets[True], nets[False])


class TestFaultyEquivalence:
    """Same fault schedule, same seeds, both walks: identical everything."""

    def faulty_net(self, reference: bool, tree: RoutingTree, plan: FaultPlan, arq):
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        cls = ReferenceFaultyTreeNetwork if reference else FaultyTreeNetwork
        return cls(tree, ledger, plan=plan, arq=arq)

    def run_faulty(self, reference: bool, loss, churn=None, outages=None, retries=3):
        tree = random_tree(45, seed=12)
        plan = FaultPlan(
            loss=loss,
            churn=churn,
            outages=outages,
            rng=np.random.default_rng(424242),
        )
        net = self.faulty_net(
            reference, tree, plan, ArqPolicy(max_retries=retries)
        )
        reached = []
        answers = []
        for r in range(8):
            net.begin_faults_round(r)
            net.ledger.begin_round()
            answers.append(net.convergecast(sized_contributions(tree, r)))
            reached.append(net.broadcast(24))
            net.ledger.end_round()
        return net, answers, reached

    @staticmethod
    def assert_fault_counters_equal(a: FaultyTreeNetwork, b: FaultyTreeNetwork):
        for field in (
            "lost_transmissions",
            "retransmissions",
            "acks_sent",
            "lost_acks",
        ):
            assert getattr(a, field) == getattr(b, field), field

    def test_independent_loss_with_arq(self):
        net_o, ans_o, reach_o = self.run_faulty(True, IndependentLoss(0.2))
        net_v, ans_v, reach_v = self.run_faulty(False, IndependentLoss(0.2))
        assert_networks_identical(net_o, net_v)
        self.assert_fault_counters_equal(net_o, net_v)
        assert reach_o == reach_v
        assert [a and a.values for a in ans_o] == [a and a.values for a in ans_v]
        assert net_o.lost_transmissions > 0  # the scenario actually bites

    def test_gilbert_elliott_loss_no_arq(self):
        results = {
            reference: self.run_faulty(
                reference, GilbertElliottLoss(0.3, 0.5, 0.02), retries=0
            )
            for reference in (True, False)
        }
        assert_networks_identical(results[True][0], results[False][0])
        self.assert_fault_counters_equal(results[True][0], results[False][0])

    def test_churn_and_outages_prune_broadcasts_identically(self):
        churn = ScheduledChurn({3: (9,), 5: (14,)})
        outages = ScheduledOutages({2: ((7, 3), (11, 2)), 6: ((20, 2),)})
        results = {
            reference: self.run_faulty(
                reference, IndependentLoss(0.1), churn=churn, outages=outages
            )
            for reference in (True, False)
        }
        net_o, _, reach_o = results[True]
        net_v, _, reach_v = results[False]
        assert_networks_identical(net_o, net_v)
        assert reach_o == reach_v
        # Churn really pruned some broadcast subtree at least once.
        assert min(reach_o) < net_o.tree.num_vertices - 1

    def test_full_driver_stack_identical(self):
        """Loss + churn + outages + ARQ + repair + rotation, end to end.

        The driver constructs its own network, so the reference walk is
        swapped in through ``reference_drivers``.
        """

        def run(reference: bool):
            rng = np.random.default_rng(11)
            n = 40
            positions = rng.uniform(0, 30, size=(n, 2))
            positions[0] = (15.0, 15.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(5)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents)
            vrng = np.random.default_rng(3)
            rounds = [
                vrng.integers(0, 128, size=n) for _ in range(12)
            ]
            plan = FaultPlan(
                loss=GilbertElliottLoss(0.25, 0.4, 0.02),
                churn=ScheduledChurn({6: (9,)}),
                outages=ScheduledOutages({3: ((7, 2),), 5: ((12, 2),)}),
                rng=np.random.default_rng(99),
            )
            with reference_drivers(reference):
                driver = FaultDriver(
                    default_algorithms()["POS"],
                    QuerySpec(r_min=0, r_max=127),
                    tree,
                    SequenceWorkload(rounds),
                    plan,
                    ArqPolicy(max_retries=3),
                    graph=graph,
                    repair=True,
                    radio_range=RADIO_RANGE,
                    rotate_every=4,
                    rotate_rng=np.random.default_rng(1),
                )
            reports = driver.run(len(rounds))
            return reports, driver.ledger, driver.net

        reports_o, ledger_o, net_o = run(True)
        reports_v, ledger_v, net_v = run(False)
        assert type(net_o) is ReferenceFaultyTreeNetwork
        assert type(net_v) is FaultyTreeNetwork
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert_ledgers_identical(ledger_o, ledger_v)
        self.assert_fault_counters_equal(net_o, net_v)


class IntegerLoss(LinkLossModel):
    """A custom model that draws integers: the walk calls it per frame."""

    def __init__(self, per_mille: int) -> None:
        self.per_mille = per_mille
        self.nominal_loss = per_mille / 1000

    def lost(self, sender, receiver, rng) -> bool:
        return int(rng.integers(0, 1000)) < self.per_mille


LOSS_AXIS = {
    "lossless": lambda: None,
    "iid-low": lambda: IndependentLoss(0.05),
    "iid-high": lambda: IndependentLoss(0.25),
    "gilbert-elliott": lambda: GilbertElliottLoss(0.2, 0.45, 0.03, 0.85),
    "integer-draws": lambda: IntegerLoss(150),
}


class TestFaultyEquivalenceMatrix:
    """Exhaustive loss × ARQ budget × churn × payload-shape sweep.

    Every cell runs both walks under random churn *and* outages (so the
    plan's RNG is consulted between convergecasts too) and asserts the
    complete observable state matches bit for bit: ledgers, answers,
    collection logs, fault counters, the link-quality EWMA table — values
    *and* insertion order — and the fault plan's final generator state.
    The payload axis covers both faulty paths: each column-batch kind
    takes the columnar fold, ``generic`` the batched per-object walk.
    """

    def run_cell(self, reference, loss_factory, retries, kind, adaptive=False):
        tree = random_tree(50, seed=18)
        plan = FaultPlan(
            loss=loss_factory(),
            churn=RandomChurn(0.015),
            outages=RandomOutages(0.04, mean_downtime=2.0),
            rng=np.random.default_rng(777),
        )
        arq = (
            AdaptiveArqPolicy(max_retries=max(retries, 1))
            if adaptive
            else ArqPolicy(max_retries=retries)
        )
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        cls = ReferenceFaultyTreeNetwork if reference else FaultyTreeNetwork
        net = cls(tree, ledger, plan=plan, arq=arq)
        answers = []
        batches = np.random.default_rng(99)
        for r in range(10):
            net.begin_faults_round(r)
            net.ledger.begin_round()
            if kind == "generic":
                contributions = sized_contributions(tree, r)
            else:
                contributions = make_batch(kind, batches, tree)
            answers.append(net.convergecast(contributions))
            net.broadcast(24)
            net.ledger.end_round()
        return net, answers

    @staticmethod
    def assert_cells_identical(net_o, ans_o, net_v, ans_v, kind):
        assert_networks_identical(net_o, net_v)
        TestFaultyEquivalence.assert_fault_counters_equal(net_o, net_v)
        assert ans_o == ans_v
        # The EWMA link table must agree in values AND insertion order —
        # repair/rotation iterate it, so order is observable behaviour.
        assert net_o.link_stats.table() == net_v.link_stats.table()
        assert net_o.link_stats.observations == net_v.link_stats.observations
        # Identical final RNG state proves both walks consumed the exact
        # same draw sequence (churn/outage draws included).
        assert states_equal(
            net_o.plan.rng.bit_generator.state,
            net_v.plan.rng.bit_generator.state,
        )

    @pytest.mark.parametrize("kind", ["generic", *KINDS])
    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("loss_name", sorted(LOSS_AXIS))
    def test_matrix_cell(self, loss_name, retries, kind):
        loss_factory = LOSS_AXIS[loss_name]
        net_o, ans_o = self.run_cell(True, loss_factory, retries, kind)
        net_v, ans_v = self.run_cell(False, loss_factory, retries, kind)
        self.assert_cells_identical(net_o, ans_o, net_v, ans_v, kind)

    @pytest.mark.parametrize("kind", ["generic", *KINDS])
    @pytest.mark.parametrize("loss_name", ["iid-high", "gilbert-elliott"])
    def test_adaptive_arq_cell(self, loss_name, kind):
        """Adaptive ARQ: learned budgets must evolve identically per walk."""
        loss_factory = LOSS_AXIS[loss_name]
        net_o, ans_o = self.run_cell(
            True, loss_factory, retries=4, kind=kind, adaptive=True
        )
        net_v, ans_v = self.run_cell(
            False, loss_factory, retries=4, kind=kind, adaptive=True
        )
        self.assert_cells_identical(net_o, ans_o, net_v, ans_v, kind)
        # And the budgets the policy would hand out next round agree.
        tree = net_o.tree
        for vertex in list(tree.sensor_nodes)[:10]:
            parent = tree.parent[vertex]
            assert net_o.arq.attempts_for(vertex, parent) == net_v.arq.attempts_for(
                vertex, parent
            )

    @pytest.mark.parametrize("repair", [False, True])
    @pytest.mark.parametrize("rotate_every", [0, 4])
    def test_driver_rotation_repair_matrix(self, rotate_every, repair):
        """Rotation × repair through the full driver, walk-pinned."""

        def run(reference: bool):
            rng = np.random.default_rng(23)
            n = 36
            positions = rng.uniform(0, 30, size=(n, 2))
            positions[0] = (15.0, 15.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(8)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents)
            vrng = np.random.default_rng(6)
            rounds = [vrng.integers(0, 100, size=n) for _ in range(10)]
            plan = FaultPlan(
                loss=IndependentLoss(0.12),
                churn=RandomChurn(0.02),
                outages=RandomOutages(0.05),
                rng=np.random.default_rng(555),
            )
            with reference_drivers(reference):
                driver = FaultDriver(
                    default_algorithms()["POS"],
                    QuerySpec(r_min=0, r_max=99),
                    tree,
                    SequenceWorkload(rounds),
                    plan,
                    ArqPolicy(max_retries=2),
                    graph=graph,
                    repair=repair,
                    radio_range=RADIO_RANGE,
                    rotate_every=rotate_every,
                    rotate_rng=np.random.default_rng(2),
                )
            reports = driver.run(len(rounds))
            return reports, driver

        reports_o, driver_o = run(True)
        reports_v, driver_v = run(False)
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert [sorted(r.participating) for r in reports_o] == [
            sorted(r.participating) for r in reports_v
        ]
        assert_ledgers_identical(driver_o.ledger, driver_v.ledger)
        TestFaultyEquivalence.assert_fault_counters_equal(
            driver_o.net, driver_v.net
        )
        assert states_equal(
            driver_o.net.plan.rng.bit_generator.state,
            driver_v.net.plan.rng.bit_generator.state,
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        loss_rate=st.floats(min_value=0.0, max_value=0.3),
        retries=st.integers(min_value=0, max_value=3),
    )
    def test_fuzz_differential_invariant_both_cores(
        self, seed, loss_rate, retries
    ):
        """The oracle invariant holds on both walks for fuzzed fault cells,
        and the walks agree with each other round by round."""
        rng = np.random.default_rng(seed)
        n = 24
        positions = rng.uniform(0, 25, size=(n, 2))
        positions[0] = (12.5, 12.5)
        graph = build_physical_graph(positions, RADIO_RANGE)
        prng = np.random.default_rng(seed + 1)
        parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
        tree = tree_from_parents(0, parents)
        vrng = np.random.default_rng(seed + 2)
        rounds = [vrng.integers(0, 64, size=n) for _ in range(6)]
        factories = {"POS": default_algorithms()["POS"]}
        spec = QuerySpec(r_min=0, r_max=63)

        def plan_factory():
            return FaultPlan(
                loss=IndependentLoss(loss_rate),
                churn=RandomChurn(0.01),
                rng=np.random.default_rng(seed + 3),
            )

        per_walk = {
            reference: assert_differential_invariant(
                factories,
                graph,
                tree,
                rounds,
                spec,
                plan_factory,
                retries=retries,
                radio_range=RADIO_RANGE,
                min_trustworthy=0,
                reference=reference,
            )["POS"]
            for reference in (True, False)
        }
        assert [r.answer for r in per_walk[True]] == [
            r.answer for r in per_walk[False]
        ]
        assert [r.trustworthy for r in per_walk[True]] == [
            r.trustworthy for r in per_walk[False]
        ]

    def test_root_failover_identical_across_cores(self):
        """A mid-run root kill under loss + ARQ: both walks elect the same
        successor, charge the same hand-over traffic, and stay in lockstep
        through the re-rooted tail of the run."""

        def run(reference: bool):
            rng = np.random.default_rng(31)
            n = 30
            positions = rng.uniform(0, 28, size=(n, 2))
            positions[0] = (14.0, 14.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(9)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents)
            vrng = np.random.default_rng(13)
            rounds = [vrng.integers(0, 100, size=n) for _ in range(10)]
            plan = FaultPlan(
                loss=IndependentLoss(0.08),
                churn=ScheduledChurn({4: (0,)}),
                outages=RandomOutages(0.05),
                rng=np.random.default_rng(77),
            )
            with reference_drivers(reference):
                driver = FaultDriver(
                    default_algorithms()["POS"],
                    QuerySpec(r_min=0, r_max=99),
                    tree,
                    SequenceWorkload(rounds),
                    plan,
                    ArqPolicy(max_retries=2),
                    graph=graph,
                    repair=True,
                    radio_range=RADIO_RANGE,
                    failover_rng=np.random.default_rng(19),
                )
            reports = driver.run(len(rounds))
            return reports, driver

        reports_o, driver_o = run(True)
        reports_v, driver_v = run(False)
        assert driver_o.failover.events == driver_v.failover.events
        assert driver_o.failover.count == 1
        assert driver_o.net.tree.root == driver_v.net.tree.root != 0
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert [sorted(r.participating) for r in reports_o] == [
            sorted(r.participating) for r in reports_v
        ]
        assert_ledgers_identical(driver_o.ledger, driver_v.ledger)
        TestFaultyEquivalence.assert_fault_counters_equal(
            driver_o.net, driver_v.net
        )
        assert states_equal(
            driver_o.net.plan.rng.bit_generator.state,
            driver_v.net.plan.rng.bit_generator.state,
        )


# The CLI's fault slices: the faulty path with repair and transient churn,
# the same under learning (adaptive) ARQ, a mid-run sink kill under loss
# and ARQ, and Gilbert-Elliott burst loss, whose frames the walk draws one
# by one through the plan.
CLI_SLICES = {
    "faults": [
        "faults", "--loss", "0.05", "--retries", "2", "--transient", "0.05",
        "--nodes", "20", "--rounds", "8", "--range", "60", "--seed", "7",
    ],
    "adaptive": [
        "faults", "--loss", "0.05", "--retries", "1", "--transient", "0.05",
        "--adaptive-arq",
        "--nodes", "20", "--rounds", "10", "--range", "60", "--seed", "7",
    ],
    "root-kill": [
        "faults", "--loss", "0.05", "--retries", "2", "--root-kill", "5",
        "--nodes", "20", "--rounds", "12", "--range", "60", "--seed", "7",
    ],
    "burst": [
        "faults", "--loss", "0.1", "--burst", "4", "--retries", "2",
        "--nodes", "20", "--rounds", "10", "--range", "60", "--seed", "7",
    ],
}


@pytest.mark.parametrize("name", sorted(CLI_SLICES))
def test_cli_slice_identical_to_reference(name):
    """``repro faults`` prints byte-identical tables on both walks."""
    printed = {}
    for reference in (True, False):
        out = io.StringIO()
        with reference_drivers(reference), contextlib.redirect_stdout(out):
            assert cli.main(CLI_SLICES[name]) == 0
        printed[reference] = out.getvalue()
    assert printed[True] == printed[False]
    if name == "root-kill":
        assert "root killed @5" in printed[False]
    if name == "adaptive":
        assert "adp" in printed[False]
    if name == "burst":
        assert "Gilbert-Elliott" in printed[False]


class TestFaultSeam:
    """Faults enter through ``_down_mask`` and a ``FaultPlan``, nowhere else."""

    @pytest.mark.parametrize("base", [TreeNetwork, FaultyTreeNetwork])
    @pytest.mark.parametrize("hook", ["_vertex_down", "_hop_delivered"])
    def test_scalar_hook_override_refused(self, base, hook):
        with pytest.raises(TypeError, match="_down_mask and a FaultPlan"):
            type("Overrider", (base,), {hook: lambda self, *args: False})

    def test_array_paths_never_call_the_scalar_hooks(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("an array path called a scalar hook")

        monkeypatch.setattr(TreeNetwork, "_vertex_down", refuse)
        monkeypatch.setattr(TreeNetwork, "_hop_delivered", refuse)
        tree = random_tree(40, seed=21)
        plan = FaultPlan(
            loss=IndependentLoss(0.2),
            churn=ScheduledChurn({1: (5,)}),
            outages=ScheduledOutages({1: ((9, 2),)}),
            rng=np.random.default_rng(3),
        )
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        nets = [
            make_net(False, tree),
            FaultyTreeNetwork(tree, ledger, plan=plan, arq=ArqPolicy(2)),
        ]
        nets[1].begin_faults_round(1)
        for net in nets:
            net.convergecast(sized_contributions(tree, 1))
            net.convergecast(CountBatch({v: 1 for v in tree.sensor_nodes}))
            net.broadcast(24)


def test_add_at_accumulates_in_array_order():
    """The ordering contract ``EnergyLedger.charge_batch`` relies on.

    ``np.add.at`` applies repeated indices sequentially, so interleaved
    send/recv joules reproduce the scalar ``+=`` sequence bit for bit.
    This pins the assumption against future numpy behaviour changes.
    """
    indices = np.array([0, 0, 0, 0, 0], dtype=np.int64)
    addends = np.array([1e-16, 1.0, 1.0, 1e-16, -1.0], dtype=np.float64)
    batched = np.zeros(1)
    np.add.at(batched, indices, addends)
    sequential = 0.0
    for value in addends:
        sequential += value
    assert batched[0] == sequential
