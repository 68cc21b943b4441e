"""Round-driven simulation of one algorithm over one deployment.

The runner owns the energy ledger, brackets every query round, feeds the
algorithm the round's measurements and (optionally) asserts the distributed
answer against the centralized oracle — all algorithms in this package are
exact, so any deviation is an implementation bug and fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.network.tree import RoutingTree
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger, TrafficCounters
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error
from repro.types import RoundStats

if TYPE_CHECKING:  # imported lazily to avoid a core <-> sim import cycle
    from repro.core.base import ContinuousQuantileAlgorithm

#: Maps a round index to per-vertex measurements (root entry ignored).
ValuesProvider = Callable[[int], np.ndarray]

#: Builds the network binding for one run — the seam through which link
#: loss (``repro.faults.FaultyTreeNetwork``) slips under any runner.  Churn
#: and outages advance once per round, which only
#: ``repro.faults.FaultDriver`` does; :meth:`SimulationRunner.run` refuses a
#: network whose plan has either.
NetworkFactory = Callable[[RoutingTree, EnergyLedger], TreeNetwork]


def finite_values(values: np.ndarray, round_index: int) -> np.ndarray:
    """One round's measurements as an array, refusing NaN and infinities,
    which the algorithms' ``int64`` casts would turn into the smallest
    integer without a word."""
    values = np.asarray(values)
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        vertex = int(np.argmin(np.isfinite(values)))
        raise ConfigurationError(
            f"round {round_index}: vertex {vertex} measured {values[vertex]}, "
            "not a finite value"
        )
    return values


@dataclass
class RunResult:
    """Everything measured over one simulation run."""

    algorithm: str
    rounds: list[RoundStats] = field(default_factory=list)
    max_mean_round_energy_j: float = 0.0
    lifetime_rounds: float = float("inf")
    totals: TrafficCounters | None = None
    #: On-air bits attributed to each protocol phase over the whole run
    #: (initialization / validation / refinement / filter / collection).
    phase_bits: dict[str, int] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of completed rounds, initialization included."""
        return len(self.rounds)

    @property
    def total_refinements(self) -> int:
        """Refinement exchanges summed over all rounds."""
        return sum(record.outcome.refinements for record in self.rounds)

    @property
    def quantile_series(self) -> list[int]:
        """The reported quantile of every round."""
        return [record.outcome.quantile for record in self.rounds]

    @property
    def all_exact(self) -> bool:
        """True when every round matched the centralized oracle."""
        return all(record.exact for record in self.rounds)

    @property
    def mean_rank_error(self) -> float:
        """Mean per-round rank error (0 for exact algorithms)."""
        return sum(r.rank_error for r in self.rounds) / len(self.rounds)

    @property
    def max_rank_error(self) -> int:
        """Worst per-round rank error over the run."""
        return max(r.rank_error for r in self.rounds)


class SimulationRunner:
    """Drives a continuous quantile algorithm over a fixed routing tree.

    Args:
        tree: the deployment's routing tree.
        radio_range: nominal radio range for the energy model [m].
        energy_model: radio cost parameters.
        check: assert each round's answer against the oracle (default on;
            benchmarks may disable it to measure pure protocol cost).
        network_factory: builds the tree/ledger binding per run; inject
            ``repro.faults.FaultyTreeNetwork`` here to run any algorithm
            under link loss (``check`` should then be off — under loss even
            exact algorithms legitimately miss the oracle).  The runner
            never advances a fault plan's rounds, so a plan with churn or
            outages raises :class:`~repro.errors.ConfigurationError`; run
            those through ``repro.faults.FaultDriver``.
    """

    def __init__(
        self,
        tree: RoutingTree,
        radio_range: float,
        energy_model: EnergyModel | None = None,
        check: bool = True,
        network_factory: NetworkFactory | None = None,
    ) -> None:
        self.tree = tree
        self.radio_range = radio_range
        self.energy_model = energy_model or EnergyModel()
        self.check = check
        self.network_factory = network_factory or TreeNetwork

    def run(
        self,
        algorithm: "ContinuousQuantileAlgorithm",
        values_provider: ValuesProvider,
        num_rounds: int,
    ) -> RunResult:
        """Execute ``num_rounds`` rounds (round 0 is the initialization)."""
        if num_rounds < 1:
            raise ProtocolError(f"num_rounds must be >= 1, got {num_rounds}")
        ledger = EnergyLedger(
            num_vertices=self.tree.num_vertices,
            root=self.tree.root,
            model=self.energy_model,
            radio_range=self.radio_range,
        )
        net = self.network_factory(self.tree, ledger)
        plan = getattr(net, "plan", None)
        if plan is not None and (plan.churn is not None or plan.outages is not None):
            raise ConfigurationError(
                "SimulationRunner never advances a fault plan, so its churn "
                "and outages would never happen; run them through "
                "repro.faults.FaultDriver"
            )
        k = quantile_rank(net.num_sensor_nodes, algorithm.spec.phi)
        result = RunResult(algorithm=algorithm.name)

        # Static per-run views, hoisted out of the round loop: the sensor
        # index array and mask depend only on the tree, and rebuilding
        # them per round costs O(n) each on large deployments.
        sensor_idx = np.asarray(self.tree.sensor_nodes, dtype=np.intp)
        sensor_mask = ledger.sensor_mask()
        previous_messages = previous_values_sent = previous_exchanges = 0
        for round_index in range(num_rounds):
            values = finite_values(values_provider(round_index), round_index)
            ledger.begin_round()
            if round_index == 0:
                outcome = algorithm.initialize(net, values)
            else:
                outcome = algorithm.update(net, values)
            round_energy = ledger.end_round()

            sensor_values = values[sensor_idx]
            truth = exact_quantile(sensor_values, k)
            if self.check and algorithm.exact and outcome.quantile != truth:
                raise ProtocolError(
                    f"{algorithm.name} round {round_index}: computed "
                    f"{outcome.quantile} but the exact quantile is {truth}"
                )
            total_messages = int(ledger.messages_sent.sum())
            total_values = int(ledger.values_sent.sum())
            result.rounds.append(
                RoundStats(
                    round_index=round_index,
                    outcome=outcome,
                    true_quantile=truth,
                    max_sensor_energy_j=float(round_energy[sensor_mask].max()),
                    total_energy_j=float(round_energy.sum()),
                    messages_sent=total_messages - previous_messages,
                    values_sent=total_values - previous_values_sent,
                    exchanges=net.exchanges - previous_exchanges,
                    rank_error=rank_error(sensor_values, outcome.quantile, k),
                )
            )
            previous_messages, previous_values_sent = total_messages, total_values
            previous_exchanges = net.exchanges

        result.max_mean_round_energy_j = ledger.max_mean_round_energy()
        result.lifetime_rounds = ledger.steady_state_lifetime()
        result.totals = ledger.totals()
        result.phase_bits = dict(net.phase_bits)
        return result
