"""Reference q-digest queries: the entry scans the query index replaced.

``QDigest.rank_bounds`` used to walk every stored entry on each call, and
``QDigest.quantile`` re-sorted the entries on each call.  The functions
below are those scans, verbatim but for ``self`` becoming ``digest``, with
the digest's old ``_node_range`` helper moved here beside them.  They are
slow on purpose: they are the oracle ``tests/test_qdigest_index.py`` pins
the bisection queries to.

:func:`value_bounds` is the serving gate's old value interval: two binary
searches over the universe through any sketch's ``rank_bounds``, the
oracle of ``QDigest.value_bounds``, which reads both ends off the index.
:class:`ScanDigest` wraps a digest so that it runs on the scans.
"""

from __future__ import annotations

from itertools import accumulate

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


def sorted_index(digest) -> tuple[list[int], list[int], list[int], list[int]]:
    """``QDigest._index`` by sorting every entry's clipped range end and
    range start: the one build of every digest before leaf-only digests
    skipped the sort."""
    last = digest.universe_size - 1
    by_end = sorted(
        (min(node_range(digest, node)[1], last), count) for node, count in digest.entries
    )
    by_start = sorted((node_range(digest, node)[0], count) for node, count in digest.entries)
    return (
        [end for end, _ in by_end],
        list(accumulate((c for _, c in by_end), initial=0)),
        [start for start, _ in by_start],
        list(accumulate((c for _, c in by_start), initial=0)),
    )


def value_bounds(sketch, k: int) -> tuple[int, int]:
    """A sound value interval containing the true k-th smallest value.

    Uses only the sketch's sound rank bounds: the true k-th value ``x*``
    satisfies ``x* <= v`` iff ``#{< v+1} >= k`` and ``x* >= v`` iff
    ``#{< v} < k``, both monotone in ``v``, so each endpoint is a binary
    search over the universe.
    """
    if not 1 <= k <= sketch.n:
        raise ConfigurationError(f"rank {k} out of range for {sketch.n} values")
    r_min, r_max = sketch.r_min, sketch.r_max

    # Upper endpoint: smallest v with a *guaranteed* #{< v+1} >= k.
    lo_v, hi_v = r_min, r_max
    while lo_v < hi_v:
        mid = (lo_v + hi_v) // 2
        if sketch.rank_bounds(mid + 1)[0] >= k:
            hi_v = mid
        else:
            lo_v = mid + 1
    upper = lo_v

    # Lower endpoint: largest v with a *guaranteed* #{< v} < k.
    lo_v, hi_v = r_min, r_max
    while lo_v < hi_v:
        mid = (lo_v + hi_v + 1) // 2
        if sketch.rank_bounds(mid)[1] < k:
            lo_v = mid
        else:
            hi_v = mid - 1
    lower = lo_v

    return min(lower, upper), upper


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
