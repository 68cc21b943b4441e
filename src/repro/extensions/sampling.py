"""Probabilistic quantiles by layered sampling (Section 3.1 / [28]).

The related-work section notes that "exact solutions can usually be made
probabilistic by querying only a subset of nodes, e.g., by employing a
layered architecture".  This extension implements that idea on top of any
of the package's exact continuous algorithms:

* a random *layer* of sensor nodes (fraction ``q``) participates in the
  query; the remaining nodes become pure relays that forward traffic but
  contribute no measurements;
* the chosen algorithm then computes the **exact** φ-quantile *of the
  layer*, which is a probabilistic estimate of the population quantile —
  classically, its population rank concentrates around φ·|N| with standard
  deviation ``~ sqrt(phi (1-phi) / (q |N|)) * |N|``;
* :func:`run_sampling_experiment` quantifies the trade-off: rank error
  against the full population vs. hotspot energy saved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.iq import IQ
from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import ConfigurationError
from repro.experiments.config import AlgorithmFactory
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.network.tree import RoutingTree
from repro.sim.oracle import insertion_rank_error, quantile_rank
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec


def sample_layer(
    tree: RoutingTree, fraction: float, rng: np.random.Generator
) -> RoutingTree:
    """Demote a random ``1 - fraction`` of the sensor nodes to relays."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return tree
    sensors = np.array(tree.sensor_nodes)
    keep = max(2, round(fraction * len(sensors)))
    sampled = set(rng.choice(sensors, size=keep, replace=False).tolist())
    relays = frozenset(int(v) for v in sensors if int(v) not in sampled)
    return tree.with_relays(relays)


@dataclass(frozen=True)
class SamplingPoint:
    """Outcome of one sampling fraction."""

    fraction: float
    layer_size: int
    mean_rank_error: float
    max_rank_error: int
    mean_value_error: float
    hotspot_energy_mj: float
    exact_fraction: float


@dataclass(frozen=True)
class SamplingResult:
    """The rank-error / energy trade-off curve."""

    algorithm: str
    points: tuple[SamplingPoint, ...]

    def fractions(self) -> list[float]:
        """The swept sampling fractions, in run order."""
        return [point.fraction for point in self.points]


def run_sampling_experiment(
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    algorithm: AlgorithmFactory = IQ,
    num_nodes: int = 200,
    num_rounds: int = 50,
    radio_range: float = 35.0,
    phi: float = 0.5,
    layers_per_fraction: int = 5,
    seed: int = 20140324,
) -> SamplingResult:
    """Sweep the sampling fraction and measure error vs. energy.

    Every fraction runs on the same deployment and trace, averaged over
    ``layers_per_fraction`` independent layer draws (a single draw is far
    too noisy — the error depends on which nodes happen to be sampled).
    Rank error is measured against the *full population*: the rank the
    layer's answer occupies among all |N| true measurements, compared to
    k = ⌊φ·|N|⌋.
    """
    if layers_per_fraction < 1:
        raise ConfigurationError(
            f"layers_per_fraction must be >= 1, got {layers_per_fraction}"
        )
    rng = np.random.default_rng((seed, 28))
    graph = connected_random_graph(num_nodes + 1, radio_range, rng)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(phi=phi, r_min=workload.r_min, r_max=workload.r_max)
    all_sensors = list(tree.sensor_nodes)
    population_k = quantile_rank(len(all_sensors), phi)

    points: list[SamplingPoint] = []
    algorithm_name = ""
    for fraction in fractions:
        draws = 1 if fraction == 1.0 else layers_per_fraction
        rank_errors: list[int] = []
        value_errors: list[int] = []
        energies: list[float] = []
        layer_sizes: list[int] = []
        exact = total = 0
        for draw in range(draws):
            layer_tree = sample_layer(
                tree, fraction, np.random.default_rng((seed, 5, draw))
            )
            layer_sizes.append(layer_tree.num_sensor_nodes)
            runner = SimulationRunner(layer_tree, radio_range, check=True)
            instance = algorithm(spec)
            algorithm_name = instance.name
            result = runner.run(instance, workload.values, num_rounds)
            energies.append(result.max_mean_round_energy_j * 1e3)

            for record in result.rounds:
                values = workload.values(record.round_index)[all_sensors]
                answer = record.outcome.quantile
                truth = int(
                    np.partition(values, population_k - 1)[population_k - 1]
                )
                value_errors.append(abs(answer - truth))
                exact += int(answer == truth)
                total += 1
                rank_errors.append(
                    insertion_rank_error(values, answer, population_k)
                )

        points.append(
            SamplingPoint(
                fraction=fraction,
                layer_size=int(np.mean(layer_sizes)),
                mean_rank_error=float(np.mean(rank_errors)),
                max_rank_error=int(np.max(rank_errors)),
                mean_value_error=float(np.mean(value_errors)),
                hotspot_energy_mj=float(np.mean(energies)),
                exact_fraction=exact / total,
            )
        )
    return SamplingResult(algorithm=algorithm_name, points=tuple(points))
