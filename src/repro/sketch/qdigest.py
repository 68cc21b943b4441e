"""Q-digest: a deterministic mergeable quantile sketch over a bounded
integer universe (Shrivastava, Buragohain, Agrawal, Suri — "Medians and
Beyond: New Aggregation Techniques for Sensor Networks", SenSys 2004).

The digest stores counts on nodes of the complete binary tree whose leaves
are the universe values (heap numbering: root ``1``, children ``2i`` /
``2i+1``, leaves ``2^L .. 2^(L+1)-1``).  A count stored on an internal node
means "this many measurements fell *somewhere* in this node's value range" —
that positional ambiguity is the whole error of the sketch.

Compression parameter ``kappa = ceil(L / eps)`` (``L`` = tree depth) bounds
the ambiguity:

* *invariant* — every internal node's count is at most ``floor(n / kappa)``.
  It holds after construction and is preserved by :meth:`merged` because
  floor division is superadditive (``n1//kappa + n2//kappa <=
  (n1+n2)//kappa``) and compression only creates parent counts that satisfy
  the bound.
* *consequence* — any query boundary is straddled only by the (at most
  ``L``) internal ancestors of one leaf, so the rank uncertainty is at most
  ``L * n / kappa <= eps * n``.  This holds for **any** merge tree, which is
  exactly what a sensor-network convergecast needs.

All operations are pure: :meth:`merged` returns a new digest and never
mutates either operand (the engine merges payloads in arbitrary order).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

from repro.constants import COUNTER_BITS
from repro.errors import ConfigurationError, ProtocolError

#: Bits spent declaring the per-entry count width in the serialized header.
_COUNT_WIDTH_BITS = 5


class _QueryIndex(NamedTuple):
    """Root-side query index of one digest (never serialized).

    ``ends`` holds every entry's range end, clipped to the universe, in
    ascending order; ``end_prefix[i]`` is the total count of the first
    ``i`` of them.  ``starts`` and ``start_prefix`` do the same for range
    starts.  Both prefix lists have one more element than the entries.
    """

    ends: list[int]
    end_prefix: list[int]
    starts: list[int]
    start_prefix: list[int]


@dataclass(frozen=True)
class QDigest:
    """An immutable q-digest over the integer universe ``[r_min, r_max]``.

    Attributes:
        entries: sorted ``(node_id, count)`` pairs, heap-numbered.
        n: total number of summarized measurements.
        eps: the rank-error guarantee (error ``<= eps * n``).
        r_min / r_max: inclusive universe bounds.
    """

    entries: tuple[tuple[int, int], ...]
    n: int
    eps: float
    r_min: int
    r_max: int

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls, eps: float, r_min: int, r_max: int) -> "QDigest":
        """A digest of zero measurements."""
        _validate_params(eps, r_min, r_max)
        return cls(entries=(), n=0, eps=eps, r_min=r_min, r_max=r_max)

    @classmethod
    def from_values(
        cls, values: Iterable[int], eps: float, r_min: int, r_max: int
    ) -> "QDigest":
        """Summarize an integer multiset (leaf counts, then compress)."""
        _validate_params(eps, r_min, r_max)
        levels = _levels(r_min, r_max)
        leaf_base = 1 << levels
        counts: dict[int, int] = {}
        n = 0
        for value in values:
            value = int(value)
            if not r_min <= value <= r_max:
                raise ConfigurationError(
                    f"value {value} outside universe [{r_min}, {r_max}]"
                )
            counts[leaf_base + (value - r_min)] = (
                counts.get(leaf_base + (value - r_min), 0) + 1
            )
            n += 1
        counts = _compress(counts, n, _kappa(eps, levels), levels)
        return cls(
            entries=tuple(sorted(counts.items())),
            n=n,
            eps=eps,
            r_min=r_min,
            r_max=r_max,
        )

    # -- merge ----------------------------------------------------------------

    def merged(self, other: "QDigest") -> "QDigest":
        """Union of the two summarized multisets, recompressed.

        The result still guarantees rank error ``<= eps * (n1 + n2)``; see
        the module docstring for why the invariant survives addition.
        """
        if (self.eps, self.r_min, self.r_max) != (
            other.eps,
            other.r_min,
            other.r_max,
        ):
            raise ProtocolError(
                "cannot merge q-digests with different eps or universe"
            )
        counts = dict(self.entries)
        for node, count in other.entries:
            counts[node] = counts.get(node, 0) + count
        n = self.n + other.n
        counts = _compress(counts, n, _kappa(self.eps, self.levels), self.levels)
        return QDigest(
            entries=tuple(sorted(counts.items())),
            n=n,
            eps=self.eps,
            r_min=self.r_min,
            r_max=self.r_max,
        )

    # -- queries --------------------------------------------------------------

    def rank_bounds(self, x: int) -> tuple[int, int]:
        """Sound bounds ``(lo, hi)`` on ``#{values < x}``.

        ``lo`` counts the entries whose range ends before the boundary,
        ``hi`` those whose range starts before it; ``hi - lo`` is the
        ambiguity at the boundary, at most ``eps * n``.  Two bisections on
        the query index.
        """
        if x <= self.r_min:
            return 0, 0
        if x > self.r_max:
            return self.n, self.n
        boundary = x - self.r_min  # leaf index split
        index = self._index
        lo = index.end_prefix[bisect_left(index.ends, boundary)]
        hi = index.start_prefix[bisect_left(index.starts, boundary)]
        return lo, hi

    def quantile(self, k: int) -> int:
        """An approximation of the ``k``-th smallest summarized value.

        The returned value's true rank differs from ``k`` by at most
        ``eps * n``.  It is the (universe-clipped) range maximum of the
        first stored node, in order of range maximum, at which the
        cumulative count reaches ``k``: one bisection on the prefix counts.
        Nodes sharing a range maximum report the same value, so their
        order among themselves never changes the answer.
        """
        if not 1 <= k <= self.n:
            raise ConfigurationError(f"rank {k} out of range for {self.n} values")
        index = self._index
        return self.r_min + index.ends[bisect_left(index.end_prefix, k) - 1]

    def value_bounds(self, k: int) -> tuple[int, int]:
        """A sound value interval containing the true ``k``-th smallest value.

        The true ``k``-th value ``x*`` satisfies ``x* <= v`` iff ``#{< v+1}
        >= k`` is guaranteed (``rank_bounds(v + 1)[0] >= k``) and ``x* >=
        v`` iff ``#{< v} < k`` is (``rank_bounds(v)[1] < k``).  Both
        endpoints are read off the query index in one bisection each:

        * upper: the smallest ``v`` whose ends-before-``v + 1`` count
          reaches ``k`` is the clipped end of the first entry, in end
          order, at which the end prefix reaches ``k``, which is
          :meth:`quantile`;
        * lower: the largest ``v`` whose starts-before-``v`` count stays
          below ``k`` is the start of the first entry, in start order, at
          which the start prefix reaches ``k`` (every count is positive, so
          the prefix grows strictly), clamped to the universe.

        The interval's rank-width is at most the digest's ambiguity
        (``eps * n``), and it contains the exact ``k``-th value of the
        summarized multiset for every valid ``k``.
        """
        if not 1 <= k <= self.n:
            raise ConfigurationError(f"rank {k} out of range for {self.n} values")
        index = self._index
        upper = index.ends[bisect_left(index.end_prefix, k) - 1]
        start = index.starts[bisect_left(index.start_prefix, k) - 1]
        lower = min(start, self.universe_size - 1, upper)
        return self.r_min + lower, self.r_min + upper

    def quantile_phi(self, phi: float) -> int:
        """The ``phi``-quantile under the paper's rank convention."""
        return self.quantile(max(1, int(math.floor(phi * self.n))))

    # -- accounting -----------------------------------------------------------

    def payload_bits(self) -> int:
        """Honest serialized size in bits (:func:`encoded_bits`)."""
        if not self.entries:
            return 0
        leaf_base = 1 << self.levels
        return encoded_bits(
            len(self.entries),
            max(count for _, count in self.entries).bit_length(),
            self.n,
            self.levels,
            all(node >= leaf_base for node, _ in self.entries),
        )

    def num_entries(self) -> int:
        """Stored ``(node, count)`` pairs."""
        return len(self.entries)

    # -- structure ------------------------------------------------------------

    @property
    def levels(self) -> int:
        """Depth ``L`` of the universe tree (leaves sit at depth ``L``)."""
        return _levels(self.r_min, self.r_max)

    @property
    def universe_size(self) -> int:
        """Number of representable values."""
        return self.r_max - self.r_min + 1

    @property
    def kappa(self) -> int:
        """The compression parameter ``ceil(L / eps)``."""
        return _kappa(self.eps, self.levels)

    @cached_property
    def _index(self) -> _QueryIndex:
        """The query index, built on the first query (the digest is immutable).

        Padding leaves beyond the universe never hold measurements, so a
        range reaching into the padding effectively ends at ``r_max``: the
        ends are clipped there.  ``O(m log m)`` once for ``m`` entries;
        every query after that is ``O(log m)``.

        A digest whose entries are all leaves (every lossless one) needs no
        sort: its entries ascend by node id, a leaf's range starts and ends
        at its own offset, so both orders are the entry order and one
        running count is both prefixes.
        """
        levels = self.levels
        entries = self.entries
        if entries and entries[0][0] >> levels:
            # The smallest node id is a leaf, so every entry is one.
            nodes, counts = zip(*entries)
            leaf_base = 1 << levels
            offsets = [node - leaf_base for node in nodes]
            prefix = list(accumulate(counts, initial=0))
            return _QueryIndex(offsets, prefix, offsets, prefix)
        last = self.universe_size - 1
        by_end = []
        by_start = []
        for node, count in entries:
            # A node at depth d covers 2^(L-d) leaves from (node - 2^d) * 2^(L-d).
            shift = levels + 1 - node.bit_length()
            first = (node << shift) - (1 << levels)
            by_end.append((min(first + (1 << shift) - 1, last), count))
            by_start.append((first, count))
        by_end.sort()
        by_start.sort()
        return _QueryIndex(
            ends=[end for end, _ in by_end],
            end_prefix=list(accumulate((c for _, c in by_end), initial=0)),
            starts=[first for first, _ in by_start],
            start_prefix=list(accumulate((c for _, c in by_start), initial=0)),
        )


def encoded_bits(entries, count_bits, n, levels: int, leaves_only):
    """Serialized size in bits of a nonempty digest: the smaller of two
    encodings (mirroring the histogram payload's dense/sparse choice).

    * *sparse* — header (total count + declared count width) followed by
      the ``entries`` ``(node_id, count)`` pairs; ids take ``L + 1`` bits,
      counts the declared width ``count_bits``, the largest count's bit
      length.
    * *leaf list* — when every entry is an uncompressed leaf
      (``leaves_only``), the ``n`` values themselves as ``L``-bit leaf
      indices, duplicates repeated.

    Integer arithmetic only, so it works elementwise on int64 arrays as on
    ints: :meth:`QDigest.payload_bits` prices one digest with it and
    :class:`~repro.sketch.payload.DigestBatch` every hop's digests at once.
    """
    sparse = COUNTER_BITS + _COUNT_WIDTH_BITS + entries * (levels + 1 + count_bits)
    leaf_list = COUNTER_BITS + n * levels
    shorter = leaves_only & (leaf_list < sparse)
    return sparse + shorter * (leaf_list - sparse)


def _validate_params(eps: float, r_min: int, r_max: int) -> None:
    if not 0.0 < eps < 1.0:
        raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
    if r_min > r_max:
        raise ConfigurationError(f"empty universe [{r_min}, {r_max}]")


def _levels(r_min: int, r_max: int) -> int:
    """Tree depth: the universe padded to the next power of two, at least 2."""
    return max(1, (r_max - r_min).bit_length())


def _kappa(eps: float, levels: int) -> int:
    return max(1, math.ceil(levels / eps))


def _compress(
    counts: dict[int, int], n: int, kappa: int, levels: int
) -> dict[int, int]:
    """Canonical bottom-up compression with threshold ``floor(n / kappa)``.

    A sibling pair (plus its parent's existing count) is folded into the
    parent whenever the three counts sum to at most the threshold, so every
    count the compression *creates* on an internal node respects the
    invariant.  Zero-threshold digests (``n < kappa``) stay lossless sparse
    histograms — the regime in which merging is exactly associative.
    """
    counts = {node: count for node, count in counts.items() if count}
    threshold = n // kappa
    if threshold < 1:
        return counts
    for depth in range(levels, 0, -1):
        low, high = 1 << depth, 1 << (depth + 1)
        level_nodes = sorted(
            node for node in counts if low <= node < high
        )
        seen: set[int] = set()
        for node in level_nodes:
            left = node & ~1
            if left in seen:
                continue
            seen.add(left)
            sibling = left | 1
            parent = left >> 1
            total = (
                counts.get(left, 0)
                + counts.get(sibling, 0)
                + counts.get(parent, 0)
            )
            if total <= threshold:
                counts.pop(left, None)
                counts.pop(sibling, None)
                if total:
                    counts[parent] = total
    return counts
