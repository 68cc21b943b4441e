"""Reference q-digest queries: the entry scans the query index replaced.

``QDigest.rank_bounds`` used to walk every stored entry on each call, and
``QDigest.quantile`` re-sorted the entries on each call.  The functions
below are those scans, verbatim but for ``self`` becoming ``digest``, with
the digest's old ``_node_range`` helper moved here beside them.  They are
slow on purpose: they are the oracle ``tests/test_qdigest_index.py`` pins
the bisection queries to.

:class:`ScanDigest` wraps a digest so that generic sketch consumers
(such as ``repro.serving.value_bounds``) run on the scans.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def node_range(digest, node: int) -> tuple[int, int]:
    """Inclusive leaf-index range ``[a, b]`` covered by ``node``."""
    depth = node.bit_length() - 1
    span = 1 << (digest.levels - depth)
    first = (node - (1 << depth)) * span
    return first, first + span - 1


def rank_bounds(digest, x: int) -> tuple[int, int]:
    """Sound bounds ``(lo, hi)`` on ``#{values < x}``, by a full scan."""
    if x <= digest.r_min:
        return 0, 0
    if x > digest.r_max:
        return digest.n, digest.n
    boundary = x - digest.r_min  # leaf index split
    lo = hi = 0
    for node, count in digest.entries:
        a, b = node_range(digest, node)
        # Padding leaves beyond the universe never hold measurements, so
        # a range reaching into the padding effectively ends at r_max.
        b = min(b, digest.universe_size - 1)
        if b < boundary:
            lo += count
            hi += count
        elif a < boundary:
            hi += count
    return lo, hi


def quantile(digest, k: int) -> int:
    """The ``k``-th value estimate, by sorting and scanning the entries.

    Stored nodes are scanned in ascending ``(range maximum, node id)``
    order and the range maximum of the node reaching cumulative count
    ``k`` is reported.
    """
    if not 1 <= k <= digest.n:
        raise ConfigurationError(f"rank {k} out of range for {digest.n} values")
    ordered = sorted(
        digest.entries, key=lambda item: (node_range(digest, item[0])[1], item[0])
    )
    cumulative = 0
    result = digest.r_min
    for node, count in ordered:
        cumulative += count
        result = digest.r_min + node_range(digest, node)[1]
        if cumulative >= k:
            break
    return min(result, digest.r_max)


class ScanDigest:
    """A read-only view of a digest whose queries run the reference scans."""

    def __init__(self, digest) -> None:
        self.digest = digest
        self.n = digest.n
        self.r_min = digest.r_min
        self.r_max = digest.r_max

    def rank_bounds(self, x: int) -> tuple[int, int]:
        return rank_bounds(self.digest, x)

    def quantile(self, k: int) -> int:
        return quantile(self.digest, k)
