"""Deployment build at scale: the physical graph and its min-hop tree.

Samples a connected random deployment of ``nodes`` sensors plus the root at
the paper's density (35 m radio range, a field of side 200 m·√(nodes/1000))
and builds its minimum-hop routing tree, then prints the build time and the
process's peak resident set.  It exits non-zero when the peak exceeds
1 GB, which guards the build's O(n) memory: at 30k nodes an n×n distance
matrix alone would need 14.4 GB.  Run it in a process of its own, since
the peak is process-wide::

    PYTHONPATH=src python benchmarks/deployment_scale.py          # 30,000 nodes
    PYTHONPATH=src python benchmarks/deployment_scale.py 10000
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter

import numpy as np

from repro import build_routing_tree, connected_random_graph

RADIO_RANGE_M = 35.0
PEAK_LIMIT_MB = 1024.0


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
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{graph.num_vertices} vertices, tree depth {max(tree.depth)}: "
        f"graph {built - start:.2f} s, "
        f"tree {done - built:.2f} s, peak RSS {peak_mb:.0f} MB"
    )
    if peak_mb > PEAK_LIMIT_MB:
        print(f"peak RSS above {PEAK_LIMIT_MB:.0f} MB")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
