"""Unit tests for repro.radio: message sizing, energy model, ledger."""

from __future__ import annotations

import pytest

from repro.constants import HEADER_BITS, MAX_PAYLOAD_BITS
from repro.errors import ConfigurationError, EnergyError
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.radio.message import fragment_count, message_bits

from tests.helpers import depletion_round


class TestFragmentation:
    def test_small_payload_single_frame(self):
        assert fragment_count(1) == 1
        assert fragment_count(MAX_PAYLOAD_BITS) == 1

    def test_boundary_plus_one_splits(self):
        assert fragment_count(MAX_PAYLOAD_BITS + 1) == 2

    def test_large_payload(self):
        assert fragment_count(10 * MAX_PAYLOAD_BITS) == 10

    def test_empty_payload_still_one_frame(self):
        assert fragment_count(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            fragment_count(-1)

    def test_message_bits_adds_header_per_frame(self):
        cost = message_bits(MAX_PAYLOAD_BITS + 4)
        assert cost.messages == 2
        assert cost.total_bits == 2 * HEADER_BITS + MAX_PAYLOAD_BITS + 4
        assert cost.payload_bits == MAX_PAYLOAD_BITS + 4


class TestEnergyModel:
    def test_send_cost_formula(self):
        model = EnergyModel(alpha=1e-9, beta=2e-12, path_loss_exponent=2.0)
        # 100 bits at 10 m: 100 * (1e-9 + 2e-12 * 100)
        assert model.send_energy(100, radio_range=10.0) == pytest.approx(
            100 * (1e-9 + 2e-10)
        )

    def test_recv_cost_is_distance_independent(self):
        model = EnergyModel(recv_cost=5e-9)
        assert model.recv_energy(200) == pytest.approx(1e-6)

    def test_range_increases_send_cost(self):
        model = EnergyModel()
        assert model.send_energy(1000, 85.0) > model.send_energy(1000, 15.0)

    def test_negative_bits_rejected(self):
        model = EnergyModel()
        with pytest.raises(ConfigurationError):
            model.send_energy(-1, 35.0)
        with pytest.raises(ConfigurationError):
            model.recv_energy(-1)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(alpha=-1.0)


class TestEnergyLedger:
    def make_ledger(self, vertices: int = 4) -> EnergyLedger:
        return EnergyLedger(
            num_vertices=vertices, root=0, model=EnergyModel(), radio_range=35.0
        )

    def test_charge_send_updates_counters(self):
        ledger = self.make_ledger()
        cost = message_bits(100)
        ledger.charge_send(1, cost, values=3)
        assert ledger.messages_sent[1] == 1
        assert ledger.bits_sent[1] == cost.total_bits
        assert ledger.values_sent[1] == 3
        assert ledger.energy[1] > 0

    def test_charge_recv_updates_counters(self):
        ledger = self.make_ledger()
        cost = message_bits(100)
        ledger.charge_recv(2, cost)
        assert ledger.messages_received[2] == 1
        assert ledger.bits_received[2] == cost.total_bits

    def test_round_bracketing(self):
        ledger = self.make_ledger()
        ledger.begin_round()
        ledger.charge_send(1, message_bits(64))
        snapshot = ledger.end_round()
        assert snapshot[1] > 0
        assert snapshot[2] == 0
        assert len(ledger.round_energy_history) == 1

    def test_double_begin_raises(self):
        ledger = self.make_ledger()
        ledger.begin_round()
        with pytest.raises(EnergyError):
            ledger.begin_round()

    def test_end_without_begin_raises(self):
        with pytest.raises(EnergyError):
            self.make_ledger().end_round()

    def test_sensor_mask_excludes_root(self):
        mask = self.make_ledger().sensor_mask()
        assert not mask[0]
        assert mask[1:].all()

    def test_max_sensor_energy_ignores_root(self):
        ledger = self.make_ledger()
        ledger.charge_send(0, message_bits(10_000))  # root traffic
        ledger.charge_send(1, message_bits(10))
        assert ledger.max_sensor_energy() == pytest.approx(ledger.energy[1])

    def test_steady_state_lifetime(self):
        ledger = self.make_ledger()
        for _ in range(4):
            ledger.begin_round()
            ledger.charge_send(1, message_bits(1000))
            ledger.end_round()
        hottest = ledger.mean_round_energy()[1]
        expected = ledger.model.initial_energy / hottest
        assert ledger.steady_state_lifetime() == pytest.approx(expected)

    def test_lifetime_infinite_when_idle(self):
        ledger = self.make_ledger()
        ledger.begin_round()
        ledger.end_round()
        assert ledger.steady_state_lifetime() == float("inf")

    def test_depletion_round(self):
        model = EnergyModel(initial_energy=1e-7)  # tiny battery
        ledger = EnergyLedger(4, 0, model, radio_range=35.0)
        for _ in range(3):
            ledger.begin_round()
            ledger.charge_send(1, message_bits(1000))
            ledger.end_round()
        assert depletion_round(ledger) == 0

    def test_depletion_none_when_healthy(self):
        ledger = self.make_ledger()
        ledger.begin_round()
        ledger.charge_send(1, message_bits(8))
        ledger.end_round()
        assert depletion_round(ledger) is None

    def test_totals(self):
        ledger = self.make_ledger()
        ledger.charge_send(1, message_bits(100), values=2)
        ledger.charge_send(2, message_bits(50), values=1)
        totals = ledger.totals()
        assert totals.messages_sent == 2
        assert totals.values_sent == 3
        assert totals.energy == pytest.approx(float(ledger.energy.sum()))

    def test_rejects_tiny_network(self):
        with pytest.raises(EnergyError):
            EnergyLedger(1, 0, EnergyModel(), 35.0)

    def test_mean_round_energy_requires_rounds(self):
        with pytest.raises(EnergyError):
            self.make_ledger().mean_round_energy()

    def test_idle_cost_charged_per_round(self):
        model = EnergyModel(idle_cost_per_round=1e-6)
        ledger = EnergyLedger(4, 0, model, radio_range=35.0)
        for _ in range(3):
            ledger.begin_round()
            ledger.end_round()
        # Sensors pay 3 idle rounds; the mains-powered root pays nothing.
        assert ledger.energy[1] == pytest.approx(3e-6)
        assert ledger.energy[0] == 0.0
        assert ledger.max_mean_round_energy() == pytest.approx(1e-6)

    def test_negative_idle_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(idle_cost_per_round=-1e-9)
