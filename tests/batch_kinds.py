"""Column batches for the equivalence suite, one random maker per kind.

:class:`CountBatch` is a batch kind defined outside the package: one
add-fold column of positive counts, whose reference-walk form is the plain
:class:`CountPayload`.  It shows the :class:`~repro.sim.PayloadBatch`
contract is open to new kinds.  :func:`make_batch` draws one random batch
of any kind — the count batch, one of the paper's three, the one-value
q-digest batch or the one-value value-set batch — so a test can run the
same contributions through the array paths and, expanded with
``payloads()``, through the per-hop reference walk.  The value-set kind
draws ``keep`` for the tree it folds on, so no hop below the root prunes.
:class:`StringTagDigestBatch` keeps the digest batch's former string-tag
constructor and ``np.unique`` root payload as the oracle of its cell-code
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.payloads import (
    BucketDeltaBatch,
    HistogramBatch,
    ValidationBatch,
    ValueSetBatch,
)
from repro.errors import ConfigurationError
from repro.network.tree import RoutingTree
from repro.sim.engine import Payload, PayloadBatch, TreeNetwork
from repro.sketch import DigestBatch, QDigest, SketchPayload, TaggedSketchPayload

#: Size [bits] of one count payload on the air.
COUNT_BITS = 24

#: Every batch kind :func:`make_batch` draws.  ``uniform`` is the count
#: batch: every hop carries the same fixed-size payload.
KINDS = ("uniform", "validation", "histogram", "delta", "digest", "valueset")


@dataclass(frozen=True)
class CountPayload(Payload):
    """Fixed-size counter: the reference walk's form of :class:`CountBatch`."""

    count: int

    def merged_with(self, other: "CountPayload") -> "CountPayload":
        return CountPayload(self.count + other.count)

    def payload_bits(self) -> int:
        return COUNT_BITS

    def num_values(self) -> int:
        return self.count

    def is_empty(self) -> bool:
        return self.count == 0


class CountBatch(PayloadBatch):
    """Positive per-vertex counts as one add-fold column."""

    def __init__(self, counts: Mapping[int, int]) -> None:
        super().__init__(np.fromiter(counts, dtype=np.int64, count=len(counts)))
        self.counts = np.fromiter(
            counts.values(), dtype=np.int64, count=len(counts)
        )

    def columns(self) -> np.ndarray:
        return self.counts[:, None]

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full(sums.shape[0], COUNT_BITS, dtype=np.int64), sums[:, 0]

    def root_payload(self, sums: np.ndarray, reached) -> CountPayload:
        return CountPayload(int(sums[0]))

    def payloads(self) -> dict[int, CountPayload]:
        return {
            vertex: CountPayload(count)
            for vertex, count in zip(self.ids.tolist(), self.counts.tolist())
        }


def make_batch(kind: str, rng: np.random.Generator, tree: RoutingTree) -> PayloadBatch:
    """One random batch of ``kind`` over a random subset of the vertices
    of ``tree``, its root included.

    * validation rows mix POS-style hinted transitions, counter-only
      transitions (any ``hint_values``, also 0) and IQ-style in-band rows
      that carry a value but no hint;
    * histograms pick bucket counts on both sides of the dense/compressed
      switch, compressed or not;
    * deltas draw few keys over a small grid, so merged deltas cancel at
      some senders and some rows cancel to nothing (and are dropped);
    * digests are tagged or not, over a narrow universe (keys repeat) or a
      wide one (most keys are singletons), with values at both universe
      ends, and an eps small enough that no hop compresses;
    * value sets hold negative values, narrow (ties) or wide, keep the
      smallest or the largest, and keep all (``keep=None``) or at least
      the largest root branch's contributor count but, where the rows
      allow it, fewer than the rows: the root prunes, no hop below it.
    """
    vertices = np.arange(tree.num_vertices)
    ids = np.sort(vertices[rng.random(len(vertices)) < 0.7]).astype(np.int64)
    rows = len(ids)
    if kind == "uniform":
        return CountBatch(
            dict(zip(ids.tolist(), rng.integers(1, 4, rows).tolist()))
        )
    if kind == "validation":
        old = rng.integers(-1, 2, rows).astype(np.int8)
        new = rng.integers(-1, 2, rows).astype(np.int8)
        moved = old != new
        hinted = moved & (rng.random(rows) < 0.6)
        in_band = rng.random(rows) < 0.3
        keep = moved | in_band
        return ValidationBatch(
            ids[keep],
            old[keep],
            new[keep],
            value=rng.integers(-40, 40, rows)[keep],
            hinted=hinted[keep],
            in_band=in_band[keep],
            hint_values=int(rng.integers(0, 3)),
        )
    if kind == "histogram":
        buckets = int(rng.choice([2, 3, 8, 24]))
        return HistogramBatch(
            ids,
            rng.integers(0, buckets, rows),
            buckets,
            compressed=bool(rng.random() < 0.75),
        )
    if kind == "delta":
        grid = ((-1, 2), (0, 3)) if rng.random() < 0.5 else ((0, 2), (1, 2))
        width = sum(w for _, w in grid)
        entries = rng.integers(1, 3, rows)
        entry_rows = np.repeat(np.arange(rows), entries)
        return BucketDeltaBatch(
            ids,
            entry_rows,
            rng.integers(0, width, len(entry_rows)),
            rng.choice([-2, -1, 1, 2], len(entry_rows)),
            grid,
        )
    if kind == "digest":
        return DigestBatch(*digest_inputs(rng, ids))
    if kind == "valueset":
        spread = int(rng.choice([3, 1000]))
        values = rng.integers(-spread, spread, rows)
        keep = None
        if rng.random() < 0.75:
            largest = max(largest_branch(tree, ids.tolist()), 1)
            keep = int(rng.integers(largest, max(largest, rows - 1) + 1))
        batch = ValueSetBatch(ids, values, keep, bool(rng.random() < 0.5))
        assert batch.folds_on(tree)
        return batch
    raise ValueError(f"unknown batch kind {kind!r}")


def largest_branch(tree: RoutingTree, contributors) -> int:
    """The most contributors any root branch of ``tree`` holds (the root's
    own contribution rides no hop and counts for no branch)."""
    branch = tree.branch[[v for v in set(contributors) if v != tree.root]]
    return int(np.bincount(branch).max()) if len(branch) else 0


def value_set_folds(net: TreeNetwork) -> list[bool]:
    """Per convergecast of ``net`` from now on: whether the fold got a
    :class:`ValueSetBatch` (``False``: a mapping of payload objects)."""
    folded: list[bool] = []
    fold = net._fold

    def spy(contributions, decide):
        folded.append(isinstance(contributions, ValueSetBatch))
        return fold(contributions, decide)

    net._fold = spy
    return folded


def digest_inputs(rng: np.random.Generator, ids: np.ndarray) -> tuple:
    """``DigestBatch`` arguments ``(ids, values, eps, r_min, r_max, codes,
    names)`` for the contributors ``ids``: tagged or not, over a narrow
    universe (keys repeat) or a wide one (most keys are singletons), with
    values at both universe ends, and an eps small enough that no hop
    compresses."""
    rows = len(ids)
    r_min = int(rng.integers(-20, 20))
    r_max = r_min + int(rng.choice([0, 3, 12, 1000]))
    values = rng.integers(r_min, r_max + 1, rows)
    values[rng.permutation(rows)[:2]] = (r_min, r_max)[: min(rows, 2)]
    codes, names = None, ()
    if rng.random() < 0.7:
        names = ("*", "q00", "q01", "q10")[: int(rng.integers(1, 5))]
        codes = rng.integers(0, len(names), rows)
    # kappa = ceil(L / eps) >= 100 exceeds every test tree's contributor
    # count, so no hop compresses.
    eps = float(rng.choice([0.005, 0.01]))
    return ids, values, eps, r_min, r_max, codes, names


class StringTagDigestBatch(DigestBatch):
    """The digest batch's former constructor form, the oracle of the code
    form: cell tags as strings (``None`` for the untagged form), each
    row's tag index looked up in a dict and each value converted with
    ``int``.  The root payload runs its own ``np.unique`` over the keys
    that reached the root; everything else is the package's."""

    def __init__(self, ids, values, eps, r_min, r_max, tags=None) -> None:
        PayloadBatch.__init__(self, ids)
        self.template = QDigest.empty(eps, r_min, r_max)
        ints = list(map(int, np.asarray(values).tolist()))
        if ints and not r_min <= min(ints) <= max(ints) <= r_max:
            bad = next(v for v in ints if not r_min <= v <= r_max)
            raise ConfigurationError(f"value {bad} outside universe [{r_min}, {r_max}]")
        self.tags = None
        if tags is None:
            tag = np.zeros(len(ints), dtype=np.int64)
            num_tags = 1
        else:
            self.tags = tuple(sorted(set(tags)))
            index = {name: i for i, name in enumerate(self.tags)}
            tag = np.fromiter(map(index.__getitem__, tags), dtype=np.int64, count=len(ints))
            num_tags = len(self.tags)
        universe = self.template.universe_size
        self._key = tag * universe + (np.array(ints, dtype=np.int64) - r_min)
        self._per_tag = np.bincount(tag, minlength=num_tags)
        keys, key_of_row, rows_per_key = np.unique(
            self._key, return_inverse=True, return_counts=True
        )
        shared = rows_per_key > 1
        column_of_key = np.where(shared, num_tags + np.cumsum(shared) - 1, keys // universe)
        self._column = column_of_key[key_of_row]
        shared_tag = keys[shared] // universe
        starts = np.flatnonzero(np.diff(shared_tag, prepend=-1))
        self._num_shared = len(shared_tag)
        self._runs = (starts, shared_tag[starts])

    def root_payload(self, sums, reached):
        template = self.template
        universe = template.universe_size
        keys, counts = np.unique(
            self._key if reached is None else self._key[reached], return_counts=True
        )
        tag_bounds = np.searchsorted(
            keys, np.arange(len(self._per_tag) + 1) * universe
        ).tolist()
        nodes = (keys % universe + (1 << template.levels)).tolist()
        counts = counts.tolist()
        digests = [
            (
                tag,
                QDigest(
                    entries=tuple(zip(nodes[lo:hi], counts[lo:hi])),
                    n=sum(counts[lo:hi]),
                    eps=template.eps,
                    r_min=template.r_min,
                    r_max=template.r_max,
                ),
            )
            for tag, (lo, hi) in enumerate(zip(tag_bounds, tag_bounds[1:]))
            if lo < hi
        ]
        if self.tags is None:
            return SketchPayload(digests[0][1])
        return TaggedSketchPayload(
            sketches=tuple((self.tags[tag], digest) for tag, digest in digests)
        )
