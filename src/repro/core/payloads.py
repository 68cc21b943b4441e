"""Payload types shared by the quantile algorithms.

Every payload implements :class:`repro.sim.Payload` so the engine can merge
it in-network and account its size.  Sizes follow Table 1 / Section 5.1.4:
16-bit measurements and counters, 8-bit bucket identifiers.

The three payloads whose merge is integer addition — validation counters,
histograms and bucket deltas — also come as column batches
(:class:`ValidationBatch`, :class:`HistogramBatch`,
:class:`BucketDeltaBatch`): the algorithms build those straight from their
value and state arrays, and the convergecast folds them as integer
columns (:class:`repro.sim.PayloadBatch`).  The dataclasses remain the
root's view of a merged batch and the per-hop form the reference walk
merges.  One-value value sets fold as a count column too
(:class:`ValueSetBatch`) while no hop below the root can prune: then a
hop's set is all of its contributors' values.  Value sets that prune below
the root stay objects, because where a merge cuts depends on the values,
not only on the column sums.  They are slotted, and the hot path builds
them with :func:`value_set`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    BUCKET_COUNT_BITS,
    BUCKET_ID_BITS,
    COUNTER_BITS,
    VALUE_BITS,
)
from repro.errors import ProtocolError
from repro.network.tree import RoutingTree
from repro.sim.engine import Payload, PayloadBatch

#: On-air size of one compressed histogram entry or one bucket delta.
_ENTRY_BITS = BUCKET_ID_BITS + BUCKET_COUNT_BITS


def merge_sorted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Merge two ascending tuples into one ascending tuple.

    Runs that do not overlap are concatenated; otherwise ``sorted`` merges
    the two ascending runs (timsort finds and merges them in C).
    """
    if not a:
        return b
    if not b:
        return a
    if a[-1] <= b[0]:
        return a + b
    if b[-1] <= a[0]:
        return b + a
    return tuple(sorted(a + b))


@dataclass(frozen=True)
class ValidationPayload(Payload):
    """POS-style validation message (Section 3.2), optionally with IQ's A.

    Counters describe filter-interval transitions of node values between two
    consecutive rounds; intermediate vertices merge them by addition.  The
    hint fields carry the smallest/largest *current* value among nodes that
    changed state — the root derives refinement bounds from them.

    ``hint_values`` controls accounting: POS transmits both extreme values
    (2 values), while HBC and IQ transmit only the maximum absolute
    difference to the old quantile (1 value, Section 5.1.6).  The semantics
    here always track both extremes; the root applies the symmetric
    (one-value) interpretation itself when configured to.

    ``values`` is IQ's multiset ``A`` (ascending); empty for POS and HBC.
    """

    into_lt: int = 0
    outof_lt: int = 0
    into_gt: int = 0
    outof_gt: int = 0
    hint_min: int | None = None
    hint_max: int | None = None
    hint_values: int = 2
    values: tuple[int, ...] = ()

    def merged_with(self, other: "ValidationPayload") -> "ValidationPayload":
        return ValidationPayload(
            into_lt=self.into_lt + other.into_lt,
            outof_lt=self.outof_lt + other.outof_lt,
            into_gt=self.into_gt + other.into_gt,
            outof_gt=self.outof_gt + other.outof_gt,
            hint_min=_opt_min(self.hint_min, other.hint_min),
            hint_max=_opt_max(self.hint_max, other.hint_max),
            hint_values=max(self.hint_values, other.hint_values),
            values=merge_sorted(self.values, other.values),
        )

    def payload_bits(self) -> int:
        hint_bits = self.hint_values * VALUE_BITS if self.has_hint else 0
        return 4 * COUNTER_BITS + hint_bits + len(self.values) * VALUE_BITS

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return (
            self.into_lt == 0
            and self.outof_lt == 0
            and self.into_gt == 0
            and self.outof_gt == 0
            and not self.values
            and not self.has_hint
        )

    @property
    def has_hint(self) -> bool:
        """True when at least one node contributed a hint value."""
        return self.hint_min is not None


@dataclass(frozen=True, slots=True)
class ValueSetPayload(Payload):
    """A multiset of raw measurements, optionally pruned in-network.

    ``keep`` limits the set to the ``keep`` smallest (``keep_largest=False``)
    or largest values *while keeping ties of the boundary value* — IQ's
    refinement responses need the ties to handle duplicate measurements
    exactly (Section 4.2.2).  ``keep=None`` forwards everything (TAG-style
    direct value requests).

    The hot path builds instances with :func:`value_set`, which equals this
    constructor at under half its cost.
    """

    values: tuple[int, ...] = ()
    keep: int | None = None
    keep_largest: bool = False

    def merged_with(self, other: "ValueSetPayload") -> "ValueSetPayload":
        keep, keep_largest = self.keep, self.keep_largest
        if keep != other.keep or keep_largest != other.keep_largest:
            raise ProtocolError("cannot merge value sets with different pruning")
        merged = merge_sorted(self.values, other.values)
        return value_set(prune_with_ties(merged, keep, keep_largest), keep, keep_largest)

    def payload_bits(self) -> int:
        return len(self.values) * VALUE_BITS

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return not self.values


_new = object.__new__
_set_values = ValueSetPayload.values.__set__
_set_keep = ValueSetPayload.keep.__set__
_set_keep_largest = ValueSetPayload.keep_largest.__set__


def value_set(
    values: tuple[int, ...], keep: int | None, keep_largest: bool
) -> ValueSetPayload:
    """``ValueSetPayload(values, keep, keep_largest)``, built slot by slot.

    Writing the slots through their descriptors skips the frozen
    ``__init__``'s three ``object.__setattr__`` calls; the result is an
    ordinary frozen instance, equal to (and hashing like) the constructor's.
    """
    payload = _new(ValueSetPayload)
    _set_values(payload, values)
    _set_keep(payload, keep)
    _set_keep_largest(payload, keep_largest)
    return payload


def prune_with_ties(
    ascending: tuple[int, ...], keep: int | None, keep_largest: bool
) -> tuple[int, ...]:
    """Prune an ascending tuple to ``keep`` extreme values, keeping ties.

    With ``keep_largest`` the result is the ``keep`` largest values plus any
    further duplicates of the ``keep``-th largest; symmetrically for the
    smallest.  ``keep=None`` returns the input unchanged.
    """
    if keep is None or len(ascending) <= keep:
        return ascending
    if keep <= 0:
        raise ProtocolError(f"keep must be positive, got {keep}")
    if keep_largest:
        return ascending[bisect_left(ascending, ascending[-keep]) :]
    return ascending[: bisect_right(ascending, ascending[keep - 1])]


@dataclass(frozen=True)
class HistogramPayload(Payload):
    """Equi-width histogram over a refinement interval (Section 4.1).

    Counts are merged by element-wise addition.  The on-air size is the
    smaller of the dense encoding (``b`` counts) and the compressed encoding
    (``(id, count)`` pairs for non-empty buckets) — the compression proposed
    in [21] and enabled for HBC and LCLL.
    """

    counts: tuple[int, ...]
    compressed: bool = True

    def merged_with(self, other: "HistogramPayload") -> "HistogramPayload":
        if len(self.counts) != len(other.counts):
            raise ProtocolError(
                f"histogram size mismatch: {len(self.counts)} vs {len(other.counts)}"
            )
        summed = tuple(a + b for a, b in zip(self.counts, other.counts))
        return HistogramPayload(counts=summed, compressed=self.compressed)

    def payload_bits(self) -> int:
        dense = len(self.counts) * BUCKET_COUNT_BITS
        if not self.compressed:
            return dense
        nonempty = sum(1 for count in self.counts if count)
        sparse = nonempty * (BUCKET_ID_BITS + BUCKET_COUNT_BITS)
        return min(dense, sparse)

    def is_empty(self) -> bool:
        return all(count == 0 for count in self.counts)


@dataclass(frozen=True)
class BucketDeltaPayload(Payload):
    """LCLL's improved validation message: per-bucket count deltas.

    A node whose value moved between buckets sends two entries: ``-1`` for
    the bucket it left and ``+1`` for the bucket it entered (Section 5.1.6).
    Entries are keyed by ``(level, bucket_index)`` so the hierarchical
    variant can update several resolutions in one message.
    """

    deltas: tuple[tuple[tuple[int, int], int], ...] = ()

    def merged_with(self, other: "BucketDeltaPayload") -> "BucketDeltaPayload":
        combined: dict[tuple[int, int], int] = dict(self.deltas)
        for key, delta in other.deltas:
            combined[key] = combined.get(key, 0) + delta
        pruned = tuple(
            sorted((key, delta) for key, delta in combined.items() if delta != 0)
        )
        return BucketDeltaPayload(deltas=pruned)

    def payload_bits(self) -> int:
        return len(self.deltas) * (BUCKET_ID_BITS + BUCKET_COUNT_BITS)

    def is_empty(self) -> bool:
        return not self.deltas

    def as_dict(self) -> dict[tuple[int, int], int]:
        """The deltas as a plain dictionary."""
        return dict(self.deltas)


class ValidationBatch(PayloadBatch):
    """Validation contributions (:class:`ValidationPayload`) as arrays.

    Row ``i`` is vertex ``ids[i]``.  Its interval label moved from
    ``old[i]`` to ``new[i]`` (sign-coded like :mod:`repro.core.base`:
    ``-1`` below, ``0`` at, ``1`` above the filter; equal labels are no
    transition).  ``hinted[i]`` says whether it carries its current value
    ``value[i]`` as a hint, ``in_band[i]`` whether that value rides in IQ's
    multiset ``A``.  Every row has the same ``hint_values``.  Omitted
    arrays mean no hints and no values.

    The hops need only two add-folds, the number of hinted and of in-band
    contributions; counters, hint extremes and the sorted multiset are
    read at the root alone.
    """

    __slots__ = ("old", "new", "value", "hinted", "in_band", "hint_values")

    def __init__(
        self,
        ids: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        value: np.ndarray | None = None,
        hinted: np.ndarray | None = None,
        in_band: np.ndarray | None = None,
        hint_values: int = 0,
    ) -> None:
        super().__init__(ids)
        rows = len(ids)
        self.old = old
        self.new = new
        self.value = np.zeros(rows, dtype=np.int64) if value is None else value
        self.hinted = np.zeros(rows, dtype=bool) if hinted is None else hinted
        self.in_band = np.zeros(rows, dtype=bool) if in_band is None else in_band
        self.hint_values = hint_values

    def columns(self) -> np.ndarray:
        return np.column_stack((self.hinted, self.in_band)).astype(np.int64)

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        in_band = sums[:, 1]
        hints = (sums[:, 0] > 0) * (self.hint_values * VALUE_BITS)
        return 4 * COUNTER_BITS + hints + in_band * VALUE_BITS, in_band

    def root_payload(
        self, sums: np.ndarray, reached: np.ndarray | None
    ) -> ValidationPayload:
        old, new, value = self.old, self.new, self.value
        hinted, in_band = self.hinted, self.in_band
        if reached is not None:
            old, new, value = old[reached], new[reached], value[reached]
            hinted, in_band = hinted[reached], in_band[reached]
        moved = old != new
        hints = value[hinted]
        return ValidationPayload(
            into_lt=int(np.count_nonzero(moved & (new < 0))),
            outof_lt=int(np.count_nonzero(moved & (old < 0))),
            into_gt=int(np.count_nonzero(moved & (new > 0))),
            outof_gt=int(np.count_nonzero(moved & (old > 0))),
            hint_min=int(hints.min()) if hints.size else None,
            hint_max=int(hints.max()) if hints.size else None,
            hint_values=self.hint_values,
            values=tuple(np.sort(value[in_band]).tolist()),
        )

    def payloads(self) -> dict[int, ValidationPayload]:
        out: dict[int, ValidationPayload] = {}
        for vertex, old, new, value, hinted, in_band in zip(
            self.ids.tolist(),
            self.old.tolist(),
            self.new.tolist(),
            self.value.tolist(),
            self.hinted.tolist(),
            self.in_band.tolist(),
        ):
            moved = old != new
            out[vertex] = ValidationPayload(
                into_lt=int(moved and new < 0),
                outof_lt=int(moved and old < 0),
                into_gt=int(moved and new > 0),
                outof_gt=int(moved and old > 0),
                hint_min=value if hinted else None,
                hint_max=value if hinted else None,
                hint_values=self.hint_values,
                values=(value,) if in_band else (),
            )
        return out


class HistogramBatch(PayloadBatch):
    """One-hot histogram contributions (:class:`HistogramPayload`).

    Row ``i`` adds one to bucket ``bucket[i]`` of a ``num_buckets``-bucket
    histogram.  Only buckets some row touches become columns; a hop's
    compressed size counts its nonzero column sums.
    """

    __slots__ = ("bucket", "num_buckets", "compressed", "_touched", "_column")

    def __init__(
        self,
        ids: np.ndarray,
        bucket: np.ndarray,
        num_buckets: int,
        compressed: bool = True,
    ) -> None:
        super().__init__(ids)
        self.bucket = bucket
        self.num_buckets = num_buckets
        self.compressed = compressed
        present = np.zeros(num_buckets, dtype=bool)
        present[bucket] = True
        self._touched = np.flatnonzero(present)
        self._column = (np.cumsum(present) - 1)[bucket]

    def columns(self) -> np.ndarray:
        rows = len(self.ids)
        cols = np.zeros((rows, len(self._touched)), dtype=np.int64)
        cols[np.arange(rows), self._column] = 1
        return cols

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hops = sums.shape[0]
        dense = self.num_buckets * BUCKET_COUNT_BITS
        if self.compressed:
            bits = np.minimum(np.count_nonzero(sums, axis=1) * _ENTRY_BITS, dense)
        else:
            bits = np.full(hops, dense, dtype=np.int64)
        return bits, np.zeros(hops, dtype=np.int64)

    def root_payload(
        self, sums: np.ndarray, reached: np.ndarray | None
    ) -> HistogramPayload:
        counts = np.zeros(self.num_buckets, dtype=np.int64)
        counts[self._touched] = sums
        return HistogramPayload(counts=tuple(counts.tolist()), compressed=self.compressed)

    def payloads(self) -> dict[int, HistogramPayload]:
        one_hot = [
            HistogramPayload(
                counts=tuple(int(i == b) for i in range(self.num_buckets)),
                compressed=self.compressed,
            )
            for b in range(self.num_buckets)
        ]
        return {
            vertex: one_hot[b]
            for vertex, b in zip(self.ids.tolist(), self.bucket.tolist())
        }


class BucketDeltaBatch(PayloadBatch):
    """Bucket-delta contributions (:class:`BucketDeltaPayload`).

    Keys ``(level, index)`` live on a dense grid: ``grid`` lists
    ``(level, width)`` blocks in ascending level order, and key ``(level,
    index)`` is column ``offset(level) + index``, so column order is sorted
    key order.  Entry ``j`` adds ``deltas[j]`` to column ``keys[j]`` of row
    ``rows[j]``.  Rows whose entries cancel to all zeros are dropped (an
    empty delta message is never sent).  A hop's size counts its nonzero
    column sums: merged deltas that cancel are dropped from the message.
    """

    __slots__ = ("grid", "_touched", "_cols")

    def __init__(
        self,
        ids: np.ndarray,
        rows: np.ndarray,
        keys: np.ndarray,
        deltas: np.ndarray,
        grid: tuple[tuple[int, int], ...],
    ) -> None:
        present = np.zeros(sum(width for _, width in grid), dtype=bool)
        present[keys] = True
        touched = np.flatnonzero(present)
        cols = np.zeros((len(ids), len(touched)), dtype=np.int64)
        np.add.at(cols, (rows, (np.cumsum(present) - 1)[keys]), deltas)
        nonzero = cols.any(axis=1)
        if not nonzero.all():
            ids, cols = ids[nonzero], cols[nonzero]
        super().__init__(ids)
        self.grid = grid
        self._touched = touched
        self._cols = cols

    def columns(self) -> np.ndarray:
        return self._cols

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.count_nonzero(sums, axis=1) * _ENTRY_BITS
        return bits, np.zeros(sums.shape[0], dtype=np.int64)

    def root_payload(
        self, sums: np.ndarray, reached: np.ndarray | None
    ) -> BucketDeltaPayload:
        return BucketDeltaPayload(deltas=self._entries(sums))

    def payloads(self) -> dict[int, BucketDeltaPayload]:
        return {
            vertex: BucketDeltaPayload(deltas=self._entries(row))
            for vertex, row in zip(self.ids.tolist(), self._cols)
        }

    def _entries(self, row: np.ndarray) -> tuple[tuple[tuple[int, int], int], ...]:
        """``((level, index), delta)`` entries of the nonzero columns of a
        touched-column row, in key order."""
        nonzero = np.flatnonzero(row)
        entries = []
        for column, delta in zip(
            self._touched[nonzero].tolist(), row[nonzero].tolist()
        ):
            for level, width in self.grid:
                if column < width:
                    entries.append(((level, column), delta))
                    break
                column -= width
        return tuple(entries)


class ValueSetBatch(PayloadBatch):
    """One-value value sets (:class:`ValueSetPayload`) as one count column.

    Row ``i`` sends ``value[i]`` (``int64``) for vertex ``ids[i]``, every
    row under the same ``keep`` and ``keep_largest``.  The batch folds
    exactly only on trees where no hop below the root can prune
    (:meth:`folds_on`): there a hop's set is all of its contributors'
    values, so its size is their count.  The root sorts the values that
    reached it and prunes once, which keeps what pruning after every
    pairwise merge keeps.
    """

    __slots__ = ("value", "keep", "keep_largest")

    def __init__(
        self, ids: np.ndarray, value: np.ndarray, keep: int | None, keep_largest: bool
    ) -> None:
        super().__init__(ids)
        self.value = value
        self.keep = keep
        self.keep_largest = keep_largest

    def folds_on(self, tree: RoutingTree) -> bool:
        """No hop below the root of ``tree`` can prune: ``keep`` is
        ``None`` or no root branch holds more than ``keep`` contributors
        (a root-keyed row rides no hop).  Loss, outages and ARQ only take
        contributions away from a hop, so this holds on a faulty network
        too."""
        if self.keep is None:
            return True
        branch = tree.branch[self.ids]
        branch = branch[branch != tree.root]
        return not len(branch) or int(np.bincount(branch).max()) <= self.keep

    def columns(self) -> np.ndarray:
        return np.ones((len(self.ids), 1), dtype=np.int64)

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = sums[:, 0]
        return count * VALUE_BITS, count

    def root_payload(self, sums: np.ndarray, reached: np.ndarray | None) -> ValueSetPayload:
        value = self.value if reached is None else self.value[reached]
        keep, keep_largest = self.keep, self.keep_largest
        ascending = tuple(np.sort(value).tolist())
        return value_set(prune_with_ties(ascending, keep, keep_largest), keep, keep_largest)

    def payloads(self) -> dict[int, ValueSetPayload]:
        keep, keep_largest = self.keep, self.keep_largest
        return {
            vertex: value_set((value,), keep, keep_largest)
            for vertex, value in zip(self.ids.tolist(), self.value.tolist())
        }


def _opt_min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
