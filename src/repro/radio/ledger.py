"""Per-node traffic and energy accounting.

The ledger tracks, per vertex, cumulative and per-round counters for frames,
bits and application values sent and received, plus energy in joules.  The
root node participates in traffic accounting (its receptions are real radio
activity) but is excluded from battery-derived metrics because it has an
infinite supply (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EnergyError
from repro.radio.energy import EnergyModel
from repro.radio.message import MessageCost


@dataclass(frozen=True)
class TrafficCounters:
    """Aggregated traffic/energy totals over some scope (a round or a run)."""

    messages_sent: int
    bits_sent: int
    values_sent: int
    energy: float

    @property
    def empty(self) -> bool:
        """True when nothing at all was accounted."""
        return self.messages_sent == 0 and self.bits_sent == 0 and self.energy == 0.0


class EnergyLedger:
    """Mutable per-vertex accounting for one simulation run."""

    def __init__(
        self, num_vertices: int, root: int, model: EnergyModel, radio_range: float
    ) -> None:
        if num_vertices < 2:
            raise EnergyError(f"need at least 2 vertices, got {num_vertices}")
        if not 0 <= root < num_vertices:
            raise EnergyError(f"root {root} out of range for {num_vertices} vertices")
        self._model = model
        self._radio_range = float(radio_range)
        self.root = root
        #: Every vertex that has ever held the sink role.  Root fail-over
        #: promotes a sensor to mains-powered sink mid-run; battery-derived
        #: metrics must exclude all past sinks or the retired root's huge
        #: receive totals would masquerade as a sensor hotspot.
        self._ever_root: set[int] = {root}
        self.num_vertices = num_vertices

        self.energy = np.zeros(num_vertices)
        self.messages_sent = np.zeros(num_vertices, dtype=np.int64)
        self.messages_received = np.zeros(num_vertices, dtype=np.int64)
        self.bits_sent = np.zeros(num_vertices, dtype=np.int64)
        self.bits_received = np.zeros(num_vertices, dtype=np.int64)
        self.values_sent = np.zeros(num_vertices, dtype=np.int64)

        self._round_energy = np.zeros(num_vertices)
        self._round_open = False
        self.round_energy_history: list[np.ndarray] = []

    @property
    def model(self) -> EnergyModel:
        """The energy model this ledger charges with."""
        return self._model

    @property
    def radio_range(self) -> float:
        """Nominal radio range used for the amplifier term [m]."""
        return self._radio_range

    # -- round bracketing ----------------------------------------------------

    def begin_round(self) -> None:
        """Open a new round; per-round counters reset.

        A non-zero ``idle_cost_per_round`` in the model is charged here to
        every battery-powered vertex (duty-cycled idle listening).
        """
        if self._round_open:
            raise EnergyError("begin_round called with a round already open")
        self._round_open = True
        self._round_energy[:] = 0.0
        idle = self._model.idle_cost_per_round
        if idle > 0.0:
            mask = self.sensor_mask()
            self.energy[mask] += idle
            self._round_energy[mask] += idle

    def end_round(self) -> np.ndarray:
        """Close the round, archive and return its per-vertex energy."""
        if not self._round_open:
            raise EnergyError("end_round called without an open round")
        self._round_open = False
        snapshot = self._round_energy.copy()
        self.round_energy_history.append(snapshot)
        return snapshot

    # -- charging ------------------------------------------------------------

    def charge_send(self, sender: int, cost: MessageCost, values: int = 0) -> None:
        """Charge ``sender`` for putting ``cost`` on the air."""
        joules = self._model.send_energy(cost.total_bits, self._radio_range)
        self.energy[sender] += joules
        if self._round_open:
            self._round_energy[sender] += joules
        self.messages_sent[sender] += cost.messages
        self.bits_sent[sender] += cost.total_bits
        self.values_sent[sender] += values

    def charge_recv(self, receiver: int, cost: MessageCost) -> None:
        """Charge ``receiver`` for listening to ``cost`` on the air."""
        joules = self._model.recv_energy(cost.total_bits)
        self.energy[receiver] += joules
        if self._round_open:
            self._round_energy[receiver] += joules
        self.messages_received[receiver] += cost.messages
        self.bits_received[receiver] += cost.total_bits

    def charge_batch(
        self,
        energy_vertices: np.ndarray,
        energy_joules: np.ndarray,
        send_vertices: np.ndarray,
        send_messages: np.ndarray,
        send_bits: np.ndarray,
        send_values: np.ndarray,
        recv_vertices: np.ndarray,
        recv_messages: np.ndarray,
        recv_bits: np.ndarray,
    ) -> None:
        """Apply one primitive's worth of charges in a few array ops.

        The vectorized engine core calls this once per convergecast or
        broadcast instead of one ``charge_send``/``charge_recv`` pair per
        hop.  ``energy_vertices``/``energy_joules`` are the *ordered*
        per-charge sequence (sends and receives interleaved exactly as the
        scalar path would have issued them): ``np.add.at`` accumulates
        repeated indices in array order, so per-vertex float sums match the
        scalar call sequence bit for bit.  The integer traffic counters are
        order-independent and arrive pre-split by direction.
        """
        np.add.at(self.energy, energy_vertices, energy_joules)
        if self._round_open:
            np.add.at(self._round_energy, energy_vertices, energy_joules)
        np.add.at(self.messages_sent, send_vertices, send_messages)
        np.add.at(self.bits_sent, send_vertices, send_bits)
        np.add.at(self.values_sent, send_vertices, send_values)
        np.add.at(self.messages_received, recv_vertices, recv_messages)
        np.add.at(self.bits_received, recv_vertices, recv_bits)

    def reroot(self, new_root: int) -> None:
        """Move the sink role to ``new_root`` (root fail-over).

        The old root stays excluded from battery metrics forever — its
        accounted energy was drawn from mains, so counting it as a sensor
        after retirement would fabricate a hotspot.  The successor's
        pre-promotion battery history likewise stops counting once it is
        mains-powered (documented warm-standby model).
        """
        if not 0 <= new_root < self.num_vertices:
            raise EnergyError(
                f"root {new_root} out of range for {self.num_vertices} vertices"
            )
        self.root = new_root
        self._ever_root.add(new_root)

    # -- metrics -------------------------------------------------------------

    def sensor_mask(self) -> np.ndarray:
        """Boolean mask selecting battery-powered vertices.

        Excludes the current sink and every retired one (see
        :meth:`reroot`).
        """
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[sorted(self._ever_root)] = False
        return mask

    def max_sensor_energy(self) -> float:
        """Cumulative energy of the hottest battery-powered node [J]."""
        return float(self.energy[self.sensor_mask()].max())

    def mean_round_energy(self) -> np.ndarray:
        """Per-vertex mean energy per round over the archived rounds [J]."""
        if not self.round_energy_history:
            raise EnergyError("no completed rounds to average over")
        return np.mean(self.round_energy_history, axis=0)

    def max_mean_round_energy(self) -> float:
        """Mean per-round energy of the hottest sensor node [J].

        This is the paper's "maximum per-node energy consumption" indicator
        (Section 5.1.5): the average over rounds for the node that consumes
        the most.
        """
        return float(self.mean_round_energy()[self.sensor_mask()].max())

    def steady_state_lifetime(self) -> float:
        """Rounds until the first sensor node would exhaust its battery.

        Steady-state extrapolation: capacity divided by the hotspot node's
        mean per-round consumption.  Returns ``inf`` when no sensor node
        consumed any energy.
        """
        hottest = self.max_mean_round_energy()
        if hottest == 0.0:
            return float("inf")
        return self._model.initial_energy / hottest

    def totals(self) -> TrafficCounters:
        """Network-wide cumulative totals."""
        return TrafficCounters(
            messages_sent=int(self.messages_sent.sum()),
            bits_sent=int(self.bits_sent.sum()),
            values_sent=int(self.values_sent.sum()),
            energy=float(self.energy.sum()),
        )
