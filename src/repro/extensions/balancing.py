"""Hotspot load balancing by routing-tree rotation.

The paper's cost model "generally aims at reducing the sending energy of
hotspot nodes" (Section 4.1), and its lifetime metric dies with the first
exhausted battery.  On a fixed shortest-path tree, the same few vertices
near the root forward everything, round after round.  But a random
deployment usually admits *many* min-hop trees: every vertex with several
equal-depth neighbours can re-parent freely.

This extension periodically re-samples a randomized min-hop tree
(:func:`repro.network.routing.build_randomized_routing_tree`).  Crucially,
the continuous algorithms' state is *value-domain* (filters, counters,
bands — nothing refers to the tree), so rotation needs no protocol
re-initialization: nodes merely adopt a new parent, which their MAC layer
renegotiates locally.  The per-node battery drain spreads over all hotspot
candidates, and the first battery dies later.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ContinuousQuantileAlgorithm
from repro.errors import ConfigurationError, ProtocolError
from repro.network.routing import build_randomized_routing_tree
from repro.network.topology import PhysicalGraph
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error
from repro.sim.runner import RunResult, ValuesProvider
from repro.types import RoundStats


class RotatingTreeRunner:
    """A simulation runner that re-samples the routing tree periodically.

    Args:
        graph: the physical deployment (fixed).
        radio_range: nominal radio range [m].
        rebuild_every: rounds between tree rotations (0 = never rotate,
            which reproduces the plain :class:`~repro.sim.SimulationRunner`).
        rng: randomness for the tie-broken parent choices.
        energy_model: radio cost parameters.
        check: oracle-verify every round.
    """

    def __init__(
        self,
        graph: PhysicalGraph,
        radio_range: float,
        rng: np.random.Generator,
        rebuild_every: int = 10,
        root: int = 0,
        energy_model: EnergyModel | None = None,
        check: bool = True,
    ) -> None:
        if rebuild_every < 0:
            raise ConfigurationError(
                f"rebuild_every must be >= 0, got {rebuild_every}"
            )
        self.graph = graph
        self.radio_range = radio_range
        self.rebuild_every = rebuild_every
        self.root = root
        self.rng = rng
        self.energy_model = energy_model or EnergyModel()
        self.check = check

    def run(
        self,
        algorithm: ContinuousQuantileAlgorithm,
        values_provider: ValuesProvider,
        num_rounds: int,
    ) -> RunResult:
        """Execute ``num_rounds`` rounds, rotating the tree on schedule."""
        if num_rounds < 1:
            raise ProtocolError(f"num_rounds must be >= 1, got {num_rounds}")
        ledger = EnergyLedger(
            num_vertices=self.graph.num_vertices,
            root=self.root,
            model=self.energy_model,
            radio_range=self.radio_range,
        )
        tree = build_randomized_routing_tree(self.graph, self.rng, self.root)
        net = TreeNetwork(tree, ledger)
        k = quantile_rank(net.num_sensor_nodes, algorithm.spec.phi)
        sensors = list(tree.sensor_nodes)
        result = RunResult(algorithm=algorithm.name)

        previous_messages = previous_values_sent = previous_exchanges = 0
        for round_index in range(num_rounds):
            if (
                self.rebuild_every
                and round_index
                and round_index % self.rebuild_every == 0
            ):
                tree = build_randomized_routing_tree(
                    self.graph, self.rng, self.root
                )
                # Same vertices, same ledger: only the parent pointers move.
                fresh = TreeNetwork(tree, ledger)
                fresh.exchanges = net.exchanges
                fresh.phase_bits = net.phase_bits
                net = fresh

            values = np.asarray(values_provider(round_index))
            ledger.begin_round()
            if round_index == 0:
                outcome = algorithm.initialize(net, values)
            else:
                outcome = algorithm.update(net, values)
            round_energy = ledger.end_round()

            sensor_values = values[sensors]
            truth = exact_quantile(sensor_values, k)
            # Only exact algorithms promise the oracle's answer; a sketch
            # answering within its rank bound is not a protocol failure.
            if self.check and algorithm.exact and outcome.quantile != truth:
                raise ProtocolError(
                    f"{algorithm.name} round {round_index}: computed "
                    f"{outcome.quantile} but the exact quantile is {truth}"
                )
            mask = ledger.sensor_mask()
            total_messages = int(ledger.messages_sent.sum())
            total_values = int(ledger.values_sent.sum())
            result.rounds.append(
                RoundStats(
                    round_index=round_index,
                    outcome=outcome,
                    true_quantile=truth,
                    max_sensor_energy_j=float(round_energy[mask].max()),
                    total_energy_j=float(round_energy.sum()),
                    messages_sent=total_messages - previous_messages,
                    values_sent=total_values - previous_values_sent,
                    exchanges=net.exchanges - previous_exchanges,
                    rank_error=rank_error(sensor_values, outcome.quantile, k),
                )
            )
            previous_messages = total_messages
            previous_values_sent = total_values
            previous_exchanges = net.exchanges

        result.max_mean_round_energy_j = ledger.max_mean_round_energy()
        result.lifetime_rounds = ledger.steady_state_lifetime()
        result.totals = ledger.totals()
        result.phase_bits = dict(net.phase_bits)
        return result
