"""Deployment build at scale: the physical graph, its min-hop tree, and the
tree's use by the simulation core.

Samples a connected random deployment of ``nodes`` sensors plus the root at
the paper's density (35 m radio range, a field of side 200 m·√(nodes/1000))
and builds its minimum-hop routing tree.  It then times the three things a
fault run repeats on such a tree: one rebuild (1% of the leaves re-parented
to their grandparents, as tree repair does through
``tree_multi_reparented``), one ``TreeNetwork`` binding and one broadcast.
Last, it runs six ``FaultDriver`` rounds of HBC on the deployment under
loss 0.05, ARQ 2 and transient outages, with the sink killed at round 3,
and times each round (the fault path at scale: the walk, the link table,
repair and the fail-over election).  It prints the build line, then the
faulty rounds' times, re-attachments and link-table size, then the
process's peak resident set, and exits non-zero when the peak exceeds
1 GB, which guards the O(n) memory: at 30k nodes an n×n distance matrix
alone would need 14.4 GB.  Run it in a process of its own, since the peak
is process-wide::

    PYTHONPATH=src python benchmarks/deployment_scale.py          # 30,000 nodes
    PYTHONPATH=src python benchmarks/deployment_scale.py 10000
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter

import numpy as np

from repro import (
    HBC,
    EnergyLedger,
    EnergyModel,
    QuerySpec,
    SyntheticWorkload,
    TreeNetwork,
    build_routing_tree,
    connected_random_graph,
)
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
)
from repro.network.tree import tree_multi_reparented

RADIO_RANGE_M = 35.0
PEAK_LIMIT_MB = 1024.0
FAULTY_ROUNDS = 6
SINK_KILL_ROUND = 3


def grandparent_moves(tree) -> list[tuple[int, int]]:
    """Every hundredth leaf below depth 1, re-parented to its grandparent."""
    parent = tree.parent_array
    leaves = np.flatnonzero(tree.child_ptr[1:] == tree.child_ptr[:-1])
    leaves = leaves[tree.depth_array[leaves] > 1][::100]
    return list(zip(leaves.tolist(), parent[parent[leaves]].tolist()))


def faulty_rounds(graph, tree, side: float) -> tuple[list[float], int, int]:
    """Milliseconds of each of :data:`FAULTY_ROUNDS` ``FaultDriver`` rounds
    of HBC under loss 0.05, ARQ 2 and outages, the sink killed at round
    :data:`SINK_KILL_ROUND`; then the re-attachments and the link-table
    size."""
    workload = SyntheticWorkload(
        graph.positions, np.random.default_rng(2015), area_side=side
    )
    plan = FaultPlan(
        loss=IndependentLoss(0.05),
        churn=ScheduledChurn({SINK_KILL_ROUND: (tree.root,)}),
        outages=RandomOutages(0.002),
        rng=np.random.default_rng(2016),
    )
    driver = FaultDriver(
        HBC,
        QuerySpec(r_min=workload.r_min, r_max=workload.r_max),
        tree,
        workload,
        plan,
        ArqPolicy(max_retries=2),
        graph=graph,
        radio_range=RADIO_RANGE_M,
    )
    times = []
    for round_index in range(FAULTY_ROUNDS):
        start = perf_counter()
        driver.step(round_index)
        times.append((perf_counter() - start) * 1e3)
    return times, driver.repair.stats.reattach_count, driver.net.link_stats.num_links


def main(argv: list[str]) -> int:
    nodes = int(argv[0]) if argv else 30_000
    side = 200.0 * np.sqrt(nodes / 1000)
    start = perf_counter()
    graph = connected_random_graph(
        nodes + 1, RADIO_RANGE_M, np.random.default_rng(2014), area_side=side
    )
    built = perf_counter()
    tree = build_routing_tree(graph, root=0)
    done = perf_counter()

    moves = grandparent_moves(tree)
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RADIO_RANGE_M)
    ledger.begin_round()
    start_rebuild = perf_counter()
    rebuilt = tree_multi_reparented(tree, moves)
    start_bind = perf_counter()
    net = TreeNetwork(rebuilt, ledger)
    start_broadcast = perf_counter()
    net.broadcast(16)
    finished = perf_counter()

    print(
        f"{graph.num_vertices} vertices, tree depth {int(tree.depth_array.max())}: "
        f"graph {built - start:.2f} s, "
        f"tree {done - built:.2f} s, "
        f"rebuild ({len(moves)} moves) {(start_bind - start_rebuild) * 1e3:.2f} ms, "
        f"bind {(start_broadcast - start_bind) * 1e3:.2f} ms, "
        f"broadcast {(finished - start_broadcast) * 1e3:.2f} ms"
    )
    times, reattached, links = faulty_rounds(graph, tree, side)
    print(
        f"faulty HBC (loss 0.05, ARQ 2, outages 0.002, sink killed at round "
        f"{SINK_KILL_ROUND}): rounds "
        + ", ".join(f"{ms:.0f}" for ms in times)
        + f" ms, {reattached} re-attached, {links} links observed"
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB")
    if peak_mb > PEAK_LIMIT_MB:
        print(f"peak RSS above {PEAK_LIMIT_MB:.0f} MB")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
