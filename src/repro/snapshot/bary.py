"""Snapshot quantile queries (the authors' prior work [21], used in §4.1/4.2.1).

Two one-shot strategies compute the k-th value of the *current* round:

* :func:`tag_snapshot` — TAG-style pruned collection (what POS/HBC/IQ use
  to initialize by default);
* :func:`bary_snapshot` — the cost-model b-ary histogram search of [21]:
  repeatedly partition the candidate interval into ``b`` buckets, collect
  the aggregated histogram, descend into the bucket holding rank ``k``;
  finishes with a direct value request once few candidates remain.

Both return the quantile, exact root counters relative to it (so a
continuous algorithm can warm-start from the result) and the ascending
candidate values the root received.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import REFINEMENT_REQUEST_BITS, VALUES_PER_MESSAGE
from repro.core.base import (
    RootCounters,
    collect_histogram,
    direct_request,
    sensor_mask,
    tag_initialization,
)
from repro.core.cost_model import rounded_optimal_buckets
from repro.core.histogram import locate_bucket, make_grid
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork


@dataclass(frozen=True)
class SnapshotResult:
    """Outcome of a one-shot quantile query."""

    quantile: int
    counters: RootCounters
    received_values: tuple[int, ...]
    refinements: int


def tag_snapshot(net: TreeNetwork, values: np.ndarray, k: int) -> SnapshotResult:
    """One-shot quantile via TAG collection (k-pruned, ties kept)."""
    quantile, counters, smallest = tag_initialization(net, values, k)
    return SnapshotResult(
        quantile=quantile,
        counters=counters,
        received_values=smallest,
        refinements=0,
    )


def bary_snapshot(
    net: TreeNetwork,
    values: np.ndarray,
    k: int,
    r_min: int,
    r_max: int,
    num_buckets: int | None = None,
    direct_request_limit: int = VALUES_PER_MESSAGE,
) -> SnapshotResult:
    """One-shot quantile via [21]'s cost-model b-ary histogram search.

    Args:
        net: the network to query.
        values: current per-vertex measurements.
        k: 1-indexed rank to retrieve.
        r_min / r_max: the integer measurement universe.
        num_buckets: histogram fan-out; ``None`` = Lambert-W optimum.
        direct_request_limit: request raw values once at most this many
            candidates remain (0 disables; the search then descends to a
            width-1 bucket).
    """
    if not 1 <= k <= net.num_sensor_nodes:
        raise ProtocolError(f"rank {k} out of range for {net.num_sensor_nodes} nodes")
    buckets = rounded_optimal_buckets() if num_buckets is None else num_buckets
    if buckets < 2:
        raise ProtocolError(f"need at least 2 buckets, got {buckets}")

    # Every sensor buckets its value, truncated like ``int()``.
    measured = np.asarray(values).astype(np.int64)
    sensors = sensor_mask(net)
    low, high = r_min, r_max
    below = 0
    inside = net.num_sensor_nodes
    refinements = 0
    while True:
        if 0 < direct_request_limit and inside <= direct_request_limit:
            quantile, counters, received = direct_request(
                net,
                values,
                net.tree.sensor_nodes,
                net.num_sensor_nodes,
                k,
                low,
                high,
                below,
                None,
            )
            return SnapshotResult(
                quantile=quantile,
                counters=counters,
                received_values=received,
                refinements=refinements,
            )

        net.broadcast(REFINEMENT_REQUEST_BITS)
        refinements += 1
        grid = make_grid(low, high, buckets)
        counts = collect_histogram(net, measured, grid, sensors)
        inside = sum(counts)
        target = k - below - 1
        if not 0 <= target < inside:
            raise ProtocolError(f"rank {k} not inside [{low}, {high}]")
        bucket, skipped = locate_bucket(counts, target)
        bucket_low, bucket_high = grid.bucket_bounds(bucket)
        if bucket_low == bucket_high:
            quantile = bucket_low
            less = below + skipped
            counters = RootCounters(
                l=less,
                e=counts[bucket],
                g=net.num_sensor_nodes - less - counts[bucket],
            )
            return SnapshotResult(
                quantile=quantile,
                counters=counters,
                received_values=(),
                refinements=refinements,
            )
        below += skipped
        inside = counts[bucket]
        low, high = bucket_low, bucket_high
