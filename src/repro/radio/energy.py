"""First-order radio energy model (Section 5.1.4).

Sending ``s`` bits over a link costs ``s * (alpha + beta * rho**p)`` joules;
receiving ``s`` bits costs ``s * alpha_recv``.  Sleeping is free (the paper
sets sleep cost to zero because it depends on the MAC layer).  ``rho`` is the
nominal radio range: the paper charges the amplifier for the full range
regardless of the actual link length, because nodes do not do per-link power
control.  So a network has one send cost per bit,
:meth:`EnergyModel.send_cost_per_bit` at its radio range, and this module is
the only place that computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    ALPHA_J_PER_BIT,
    BETA_J_PER_BIT_M2,
    INITIAL_ENERGY_J,
    PATH_LOSS_EXPONENT,
    RECV_J_PER_BIT,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EnergyModel:
    """Parameters of the radio energy model.

    Attributes:
        alpha: distance-independent transmit cost [J/bit].
        beta: transmit amplifier coefficient [J/bit/m^p].
        path_loss_exponent: exponent ``p`` of the amplifier term.
        recv_cost: receive cost [J/bit].
        initial_energy: per-node battery capacity [J].
        idle_cost_per_round: fixed per-round cost charged to every sensor
            node [J].  The paper sets it to zero ("the sleeping cost depends
            highly on the underlying MAC layer", Section 5.1.4); non-zero
            values model duty-cycled idle listening and are used by the
            robustness ablation.
    """

    alpha: float = ALPHA_J_PER_BIT
    beta: float = BETA_J_PER_BIT_M2
    path_loss_exponent: float = PATH_LOSS_EXPONENT
    recv_cost: float = RECV_J_PER_BIT
    initial_energy: float = INITIAL_ENERGY_J
    idle_cost_per_round: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "alpha", "beta", "recv_cost", "initial_energy", "idle_cost_per_round"
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def send_cost_per_bit(self, radio_range: float) -> float:
        """Joules to transmit one bit at the nominal radio range ``rho`` [m]."""
        return self.alpha + self.beta * radio_range**self.path_loss_exponent

    def send_energy(self, bits: int, radio_range: float) -> float:
        """Joules to transmit ``bits`` bits."""
        if bits < 0:
            raise ConfigurationError(f"bits must be >= 0, got {bits}")
        return bits * self.send_cost_per_bit(radio_range)

    def recv_energy(self, bits: int) -> float:
        """Joules to receive ``bits`` bits."""
        if bits < 0:
            raise ConfigurationError(f"bits must be >= 0, got {bits}")
        return bits * self.recv_cost
