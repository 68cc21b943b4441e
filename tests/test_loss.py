"""Unit tests for the message-loss study: lossy convergecasts and rank error.

Message loss is one fault of :mod:`repro.faults`: a ``FaultyTreeNetwork``
under ``FaultPlan(loss=IndependentLoss(p))`` with ARQ off, and the
``repro loss`` study is ``run_fault_experiment`` with a zero retry budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.payloads import ValueSetPayload
from repro.errors import ConfigurationError
from repro.faults import (
    FaultPlan,
    FaultyTreeNetwork,
    IndependentLoss,
    insertion_rank_error,
    run_fault_experiment,
)
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger


def make_lossy(tree, loss, seed=0):
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
    plan = FaultPlan(loss=IndependentLoss(loss), rng=np.random.default_rng(seed))
    return FaultyTreeNetwork(tree, ledger, plan=plan)


class TestLossyTreeNetwork:
    def test_zero_loss_behaves_like_reliable(self, small_tree):
        net = make_lossy(small_tree, 0.0)
        net.ledger.begin_round()
        contributions = {
            v: ValueSetPayload(values=(v,)) for v in small_tree.sensor_nodes
        }
        merged = net.convergecast(contributions)
        assert merged is not None
        assert len(merged.values) == 7
        assert net.lost_transmissions == 0

    def test_full_senders_still_pay(self, small_tree):
        net = make_lossy(small_tree, 0.9, seed=3)
        net.ledger.begin_round()
        contributions = {
            v: ValueSetPayload(values=(v,)) for v in small_tree.sensor_nodes
        }
        net.convergecast(contributions)
        assert net.lost_transmissions > 0
        # Every sensor transmitted (and was charged) regardless of loss.
        for vertex in small_tree.sensor_nodes:
            assert net.ledger.messages_sent[vertex] >= 1

    def test_loss_drops_values(self, small_tree):
        net = make_lossy(small_tree, 0.6, seed=1)
        net.ledger.begin_round()
        contributions = {
            v: ValueSetPayload(values=(v,)) for v in small_tree.sensor_nodes
        }
        merged = net.convergecast(contributions)
        delivered = len(merged.values) if merged is not None else 0
        assert delivered < 7

    def test_invalid_probability_rejected(self, small_tree):
        with pytest.raises(ConfigurationError):
            make_lossy(small_tree, 1.0)
        with pytest.raises(ConfigurationError):
            make_lossy(small_tree, -0.1)

    def test_broadcasts_stay_reliable(self, small_tree):
        net = make_lossy(small_tree, 0.9, seed=2)
        net.ledger.begin_round()
        net.broadcast(16)
        for vertex in small_tree.sensor_nodes:
            assert net.ledger.messages_received[vertex] == 1


class TestRankError:
    def test_exact_answer_has_zero_error(self):
        values = np.array([1, 2, 3, 4, 5])
        assert insertion_rank_error(values, 3, k=3) == 0

    def test_duplicates_span_ranks(self):
        values = np.array([1, 3, 3, 3, 5])
        for k in (2, 3, 4):
            assert insertion_rank_error(values, 3, k=k) == 0
        assert insertion_rank_error(values, 3, k=1) == 1
        assert insertion_rank_error(values, 3, k=5) == 1

    def test_absent_value_measured_by_insertion_rank(self):
        values = np.array([10, 20, 30, 40])
        # 25 would sit at rank 3; asking for k=1 gives error 2.
        assert insertion_rank_error(values, 25, k=1) == 2
        assert insertion_rank_error(values, 25, k=3) == 0


class TestRunLossExperiment:
    def make(self, losses=(0.0, 0.15)):
        from repro.baselines.pos import POS
        from repro.baselines.tag import TAG

        return run_fault_experiment(
            {"TAG": TAG, "POS": POS},
            loss_rates=losses,
            retry_budgets=(0,),
            num_nodes=40,
            num_rounds=20,
            radio_range=60.0,
        )

    def test_lossless_is_exact(self):
        result = self.make(losses=(0.0,))
        for point in result.points:
            assert point.exact_fraction == 1.0
            assert point.mean_rank_error == 0.0
            assert point.failure_rate == 0.0

    def test_loss_degrades_exactness(self):
        result = self.make()
        for name in ("TAG", "POS"):
            series = result.series(name)
            assert series[0].exact_fraction >= series[-1].exact_fraction
            assert series[-1].mean_rank_error >= 0.0

    def test_series_sorted_by_loss(self):
        result = self.make()
        series = result.series("TAG")
        assert [p.loss_rate for p in series] == [0.0, 0.15]
