"""Loss draws: the faulty walk consumes the plan's generator exactly as the
per-hop reference walk does.

``FaultyTreeNetwork._walk_hops`` decides frame outcomes on one of two
routes:

* i.i.d. loss under a static ARQ policy compares uniforms it draws in
  blocks with ``Generator.random(n)`` and, on exit, rewinds the generator
  and replays only the uniforms it used.  That rests on a NumPy property of
  each bit generator: a block of ``n`` uniforms holds the values of ``n``
  scalar draws and leaves the generator where those draws would.  The
  inline tests run under PCG64, MT19937, Philox and SFC64, with
  convergecasts that cross block boundaries, that end mid-block and that
  draw nothing;
* every other loss model, and any loss under a learning policy, calls
  ``FaultPlan.transmission_lost`` once per frame — the reference walk's
  own call — so a loss model may draw from the generator in any way (the
  equivalence matrix in ``tests/test_vectorized.py`` runs one that draws
  integers).

Each test runs one fault schedule on both walks and compares the ledgers,
the fault counters, the link-quality table (values and order) and the
generator's final state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ArqPolicy, FaultPlan
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import (
    GilbertElliottLoss,
    IndependentLoss,
    LinkLossModel,
    RandomOutages,
)
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger

from tests.batch_kinds import CountBatch
from tests.helpers import states_equal
from tests.reference_engine import ReferenceFaultyTreeNetwork
from tests.test_vectorized import (
    RADIO_RANGE,
    assert_networks_identical,
    random_tree,
)

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def run_walk(
    reference: bool,
    loss: LinkLossModel,
    rng: np.random.Generator,
    *,
    retries: int = 2,
    size: int = 150,
    tree_seed: int = 31,
    rounds: int = 6,
) -> FaultyTreeNetwork:
    """Convergecasts of every sensor, of a few and of the root alone, over
    one tree under ``loss`` and transient outages."""
    tree = random_tree(size, seed=tree_seed)
    plan = FaultPlan(
        loss=loss, outages=RandomOutages(0.05, mean_downtime=2.0), rng=rng
    )
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    cls = ReferenceFaultyTreeNetwork if reference else FaultyTreeNetwork
    net = cls(tree, ledger, plan=plan, arq=ArqPolicy(max_retries=retries))
    sensors = tree.sensor_nodes
    for r in range(rounds):
        net.begin_faults_round(r)
        net.ledger.begin_round()
        net.convergecast(CountBatch({v: 1 + (v + r) % 3 for v in sensors}))
        net.convergecast(CountBatch({v: 1 for v in sensors[r::7]}))
        net.convergecast(CountBatch({tree.root: 1}))
        net.ledger.end_round()
    return net


def assert_walks_identical(ref: FaultyTreeNetwork, net: FaultyTreeNetwork) -> None:
    assert_networks_identical(ref, net)
    for field in ("lost_transmissions", "retransmissions", "acks_sent", "lost_acks"):
        assert getattr(ref, field) == getattr(net, field), field
    assert ref.link_stats.table() == net.link_stats.table()
    assert states_equal(
        ref.plan.rng.bit_generator.state, net.plan.rng.bit_generator.state
    )


def refuse_scalar_draws(monkeypatch) -> None:
    def refuse(self, sender, receiver):
        raise AssertionError("the inline i.i.d. walk drew a frame one by one")

    monkeypatch.setattr(FaultPlan, "transmission_lost", refuse)


class TestInlineIidWalk:
    @pytest.mark.parametrize("bit_gen_cls", BIT_GENERATORS, ids=lambda c: c.__name__)
    def test_matches_reference_walk(self, bit_gen_cls, monkeypatch):
        ref = run_walk(True, IndependentLoss(0.3), np.random.Generator(bit_gen_cls(7)))
        refuse_scalar_draws(monkeypatch)
        net = run_walk(False, IndependentLoss(0.3), np.random.Generator(bit_gen_cls(7)))
        assert_walks_identical(ref, net)
        assert net.lost_transmissions > 0 and net.lost_acks > 0
        # The generator is usable afterwards, not merely state-equal: later
        # draws of any shape continue the scalar stream.
        assert np.array_equal(ref.plan.rng.random(100), net.plan.rng.random(100))

    @settings(max_examples=20, deadline=None)
    @given(
        probability=st.floats(min_value=0.0, max_value=0.95),
        retries=st.integers(min_value=0, max_value=3),
        size=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bit_gen_cls=st.sampled_from(BIT_GENERATORS),
    )
    def test_fuzz_matches_reference_walk(
        self, probability, retries, size, seed, bit_gen_cls
    ):
        nets = [
            run_walk(
                reference,
                IndependentLoss(probability),
                np.random.Generator(bit_gen_cls(seed)),
                retries=retries,
                size=size,
                tree_seed=seed % 1000,
                rounds=3,
            )
            for reference in (True, False)
        ]
        assert_walks_identical(*nets)


class CountingLoss(IndependentLoss):
    """I.i.d. loss that draws a second uniform, an intensity, per lost
    frame.  Only ``IndependentLoss`` itself is drawn inline, so this
    subclass takes the per-frame route."""

    def __init__(self, probability: float) -> None:
        super().__init__(probability)
        self.intensities: list[float] = []

    def lost(self, sender, receiver, rng) -> bool:
        is_lost = rng.random() < self.probability
        if is_lost:
            self.intensities.append(rng.random())
        return is_lost


class TestDirectRoute:
    """Every other loss model draws once per frame, as the reference does."""

    def test_variable_draw_counts_match_reference(self):
        losses = [CountingLoss(0.35), CountingLoss(0.35)]
        ref, net = (
            run_walk(reference, loss, np.random.default_rng(21))
            for reference, loss in zip((True, False), losses)
        )
        assert_walks_identical(ref, net)
        assert losses[0].intensities == losses[1].intensities
        assert losses[1].intensities

    @pytest.mark.parametrize("retries", [0, 2])
    def test_gilbert_elliott_burst_state_matches_reference(self, retries):
        losses = [
            GilbertElliottLoss.from_average(0.25, burst_length=4.0)
            for _ in range(2)
        ]
        ref, net = (
            run_walk(reference, loss, np.random.default_rng(3), retries=retries)
            for reference, loss in zip((True, False), losses)
        )
        assert_walks_identical(ref, net)
        # The per-link Markov chain is part of the sampling state: both
        # walks end with the same burst flag per directed link.
        assert losses[0]._burst_state == losses[1]._burst_state
        assert any(losses[1]._burst_state.values())
