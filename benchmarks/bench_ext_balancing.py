"""Extension E-ext4: routing-tree rotation spreads the hotspot load.

The paper's optimization target is the hotspot node's energy (Section 4.1)
and its lifetime metric dies with the first battery.  Rotating among the
many equally-min-hop routing trees — at zero protocol cost, since all
algorithm state is value-domain — spreads the forwarding burden.

The gain is topology-dependent: when the sink's immediate neighbourhood is
the unavoidable bottleneck, rotation cannot help (and the randomized
parent choice can even cost a few percent); when alternative forwarders
exist, lifetimes stretch by 5-10%.  The bench therefore averages over
several deployments.

Rotation runs in ``FaultDriver`` under an empty ``FaultPlan`` (a reliable
network): the tree starts as a randomized min-hop tree and is re-sampled
every ``rotate_every`` rounds from the same generator.  ``"nearest"``
keeps the sampling uniform; the driver still folds zero-loss samples into
its link table, which the ETX metric would read.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import SyntheticWorkload
from repro.experiments.config import default_algorithms
from repro.faults import FaultDriver, FaultPlan
from repro.network.routing import (
    build_randomized_routing_tree,
    build_routing_tree,
)
from repro.network.topology import connected_random_graph
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec

from benchmarks.common import archive, bench_scale, run_once

DEPLOYMENT_SEEDS = (1, 2, 3)
ROTATE_EVERY = 3


def rotating_driver(graph, factory, spec, workload, rng) -> FaultDriver:
    """A reliable-network driver that re-samples its tree on schedule."""
    return FaultDriver(
        factory,
        spec,
        build_randomized_routing_tree(graph, rng, 0),
        workload,
        FaultPlan(),
        graph=graph,
        repair=False,
        repair_metric="nearest",
        rotate_every=ROTATE_EVERY,
        rotate_rng=rng,
    )


def compute():
    scale = bench_scale()
    num_nodes = max(100, round(500 * scale))
    rounds = max(50, round(250 * scale))
    gains: dict[str, list[float]] = {name: [] for name in default_algorithms()}
    exact = True
    for seed in DEPLOYMENT_SEEDS:
        rng = np.random.default_rng(seed)
        graph = connected_random_graph(num_nodes + 1, 35.0, rng)
        workload = SyntheticWorkload(graph.positions, rng, period=rounds // 2)
        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        fixed_runner = SimulationRunner(build_routing_tree(graph, 0), 35.0)
        for name, factory in default_algorithms().items():
            fixed = fixed_runner.run(factory(spec), workload.values, rounds)
            rotating = rotating_driver(
                graph, factory, spec, workload, np.random.default_rng(7)
            )
            rotating.run(rounds)
            gains[name].append(
                rotating.ledger.steady_state_lifetime() / fixed.lifetime_rounds
            )
            exact = exact and fixed.all_exact and rotating.exact == rounds
    return gains, exact


def test_ext_tree_rotation(benchmark):
    gains, exact = run_once(benchmark, compute)

    lines = [
        f"routing-tree rotation (rebuild every {ROTATE_EVERY} rounds, "
        f"{len(DEPLOYMENT_SEEDS)} deployments)",
        f"{'algorithm':10s} "
        + "".join(f"{'dep' + str(i):>8s}" for i in DEPLOYMENT_SEEDS)
        + f"{'mean gain':>11s}",
    ]
    means = {}
    for name, values in gains.items():
        means[name] = float(np.mean(values))
        lines.append(
            f"{name:10s} "
            + "".join(f"{value:8.2f}" for value in values)
            + f"{means[name]:10.2f}x"
        )
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    archive("ext_balancing", text)

    # Exactness survives every rotation on every deployment.
    assert exact
    # Rotation never hurts much and helps on average...
    for name, mean in means.items():
        assert mean > 0.95, name
    assert float(np.mean(list(means.values()))) > 1.01
    # ...with the heaviest forwarder (TAG) benefiting the most.
    assert means["TAG"] >= max(m for n, m in means.items() if n != "TAG") - 0.03
