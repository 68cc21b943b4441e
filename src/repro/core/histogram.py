"""Equi-width integer histograms over refinement intervals (Section 4.1).

Buckets partition an inclusive integer interval ``[low, high]`` into at most
``b`` contiguous ranges of near-equal width.  Boundaries are integral so a
bucket can be refined recursively until it covers a single value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, ProtocolError


@dataclass(frozen=True)
class BucketGrid:
    """The bucket partition of one refinement interval.

    ``edges`` has ``num_buckets + 1`` entries; bucket ``i`` covers the
    inclusive integer range ``[edges[i], edges[i+1] - 1]``.
    """

    low: int
    high: int
    edges: tuple[int, ...]

    @property
    def num_buckets(self) -> int:
        """Number of buckets in the grid."""
        return len(self.edges) - 1

    def bucket_of(self, value: int) -> int:
        """Index of the bucket containing ``value`` (must be inside the grid)."""
        if not self.low <= value <= self.high:
            raise ConfigurationError(
                f"value {value} outside grid [{self.low}, {self.high}]"
            )
        # Binary search over edges: largest i with edges[i] <= value.
        lo, hi = 0, self.num_buckets - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.edges[mid] <= value:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def bucket_of_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bucket_of`; entries outside the grid become -1."""
        values = np.asarray(values)
        indices = np.searchsorted(self.edges, values, side="right") - 1
        indices[(values < self.low) | (values > self.high)] = -1
        return indices

    def bucket_bounds(self, index: int) -> tuple[int, int]:
        """Inclusive integer bounds ``[lb, ub]`` of bucket ``index``."""
        if not 0 <= index < self.num_buckets:
            raise ConfigurationError(f"bucket index {index} out of range")
        return self.edges[index], self.edges[index + 1] - 1

    def bucket_width(self, index: int) -> int:
        """Number of integer values bucket ``index`` covers."""
        low, high = self.bucket_bounds(index)
        return high - low + 1


def make_grid(low: int, high: int, num_buckets: int) -> BucketGrid:
    """Partition ``[low, high]`` into at most ``num_buckets`` integer buckets.

    When the interval holds fewer values than ``num_buckets``, every value
    gets its own bucket.  Bucket widths differ by at most one.
    """
    if low > high:
        raise ConfigurationError(f"empty interval [{low}, {high}]")
    if num_buckets < 1:
        raise ConfigurationError(f"num_buckets must be >= 1, got {num_buckets}")
    width = high - low + 1
    buckets = min(num_buckets, width)
    edges = tuple(low + (width * i) // buckets for i in range(buckets)) + (high + 1,)
    return BucketGrid(low=low, high=high, edges=edges)


def locate_bucket(counts: "Sequence[int]", target: int) -> tuple[int, int]:
    """Bucket index containing 0-based rank ``target`` and the count before it."""
    skipped = 0
    for index, count in enumerate(counts):
        if target < skipped + count:
            return index, skipped
        skipped += count
    raise ProtocolError(f"rank {target} beyond histogram total {skipped}")
