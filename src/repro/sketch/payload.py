"""Adapter putting quantile sketches on the air as engine payloads.

:class:`SketchPayload` implements the engine's pure
:class:`~repro.sim.engine.Payload` contract, so sketches convergecast
TAG-style: every sensor contributes a one-value sketch of its measurement,
intermediate vertices merge (and thereby recompress) sketches in-network,
and the root receives one sketch summarizing the whole round.

Any object with ``merged(other)``, ``payload_bits()``, ``num_entries()``
and an ``n`` attribute qualifies as a sketch — both
:class:`~repro.sketch.qdigest.QDigest` and
:class:`~repro.sketch.kll.KLLSketch` do.

Under fault injection (:mod:`repro.faults`) whole subtrees can go missing
from a collection, so the merged root sketch may summarize fewer than
``|N|`` values.  ``QuantileSketch.n`` is therefore load-bearing: consumers
must clamp query ranks to it and widen rank bounds by the shortfall — see
``core/sketchq.py`` — rather than assume full coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.sim.engine import Payload, PayloadBatch
from repro.sketch.qdigest import QDigest, encoded_bits


@runtime_checkable
class QuantileSketch(Protocol):
    """Structural interface every mergeable quantile sketch implements."""

    n: int

    def merged(self, other: "QuantileSketch") -> "QuantileSketch": ...

    def payload_bits(self) -> int: ...

    def num_entries(self) -> int: ...

    def quantile(self, k: int) -> int: ...

    def rank_bounds(self, x: int) -> tuple[int, int]: ...


#: On-air bits spent naming one region tag in a tagged payload.  Cell tags
#: are interned small integers in a real deployment; 8 bits cover 256
#: distinct group-by cells.
TAG_BITS = 8


@dataclass(frozen=True)
class SketchPayload(Payload):
    """One sketch travelling up the tree.

    Merging two payloads merges the wrapped sketches; the on-air size is
    whatever the sketch's own honest serialization reports.  ``num_values``
    reports stored entries, feeding the transmitted-values statistic with
    the sketch's actual (compressed) freight rather than the raw count it
    summarizes.
    """

    sketch: QuantileSketch

    def merged_with(self, other: "SketchPayload") -> "SketchPayload":
        if type(self.sketch) is not type(other.sketch):
            raise ProtocolError(
                f"cannot merge {type(self.sketch).__name__} with "
                f"{type(other.sketch).__name__}"
            )
        return SketchPayload(sketch=self.sketch.merged(other.sketch))

    def payload_bits(self) -> int:
        return self.sketch.payload_bits()

    def num_values(self) -> int:
        return self.sketch.num_entries()

    def is_empty(self) -> bool:
        return self.sketch.n == 0


@dataclass(frozen=True)
class TaggedSketchPayload(Payload):
    """Per-region sub-sketches travelling up the tree as one payload.

    The multi-query serving layer partitions sensors into group-by *cells*
    (the common refinement of every registered partition); each sensor
    contributes a one-value sketch tagged with its cell, and merging is
    tag-wise — so the root receives one sub-sketch per cell and can answer
    any region's quantiles by merging the region's cells, and any global
    query by merging everything.  One convergecast, every scope.

    ``sketches`` is kept sorted by tag so equality and merging stay
    deterministic regardless of merge order.
    """

    sketches: tuple[tuple[str, QuantileSketch], ...]

    @classmethod
    def single(cls, tag: str, sketch: QuantileSketch) -> "TaggedSketchPayload":
        """One sensor's contribution: its cell tag and a one-value sketch."""
        return cls(sketches=((tag, sketch),))

    def merged_with(self, other: "TaggedSketchPayload") -> "TaggedSketchPayload":
        merged: dict[str, QuantileSketch] = dict(self.sketches)
        for tag, sketch in other.sketches:
            mine = merged.get(tag)
            if mine is None:
                merged[tag] = sketch
            else:
                if type(mine) is not type(sketch):
                    raise ProtocolError(
                        f"cannot merge {type(mine).__name__} with "
                        f"{type(sketch).__name__} under tag {tag!r}"
                    )
                merged[tag] = mine.merged(sketch)
        return TaggedSketchPayload(sketches=tuple(sorted(merged.items())))

    def payload_bits(self) -> int:
        return sum(
            TAG_BITS + sketch.payload_bits() for _, sketch in self.sketches
        )

    def num_values(self) -> int:
        return sum(sketch.num_entries() for _, sketch in self.sketches)

    def is_empty(self) -> bool:
        return all(sketch.n == 0 for _, sketch in self.sketches)

    @property
    def n(self) -> int:
        """Total number of summarized measurements across all cells."""
        return sum(sketch.n for _, sketch in self.sketches)

    def cell(self, tag: str) -> QuantileSketch | None:
        """The sub-sketch of one cell, or ``None`` if nothing arrived for it."""
        for name, sketch in self.sketches:
            if name == tag:
                return sketch
        return None

    def merged_cells(self, tags: "frozenset[str] | set[str] | None" = None):
        """Merge the sub-sketches of ``tags`` (default: all) into one sketch.

        Returns ``None`` when no selected cell delivered anything — the
        caller flags the scope as answerless instead of dividing by zero.
        """
        result: QuantileSketch | None = None
        for tag, sketch in self.sketches:
            if tags is not None and tag not in tags:
                continue
            result = sketch if result is None else result.merged(sketch)
        return result


class DigestBatch(PayloadBatch):
    """One-value q-digest contributions as integer columns.

    Row ``i`` is contributor ``ids[i]`` with one measurement, ``values[i]``
    (converted to ``int64``, truncating like ``int``), under the cell tag
    ``names[codes[i]]`` in the tagged form (:class:`TaggedSketchPayload`)
    or alone in the untagged one (:class:`SketchPayload`, ``codes`` left
    ``None``).  ``names`` must ascend; names no row uses are dropped, so
    :attr:`tags` holds the sorted distinct tags of the rows.  A row's key
    is its tag's index in :attr:`tags` times the universe size, plus its
    leaf (value minus ``r_min``).

    The batch folds exactly only while no hop can compress
    (:attr:`lossless`): when every tag has fewer than ``kappa``
    contributors, so does every hop, every merge's threshold
    ``n // kappa`` is 0, ``_compress`` changes nothing and merging digests
    adds counts per key.  A hop's digest of a tag is then a sparse
    histogram of leaves.

    Columns: one per tag counting the rows whose key no other row shares,
    then one per key two or more rows share.  A hop's per-tag count,
    distinct entries and largest count follow from its sums, which is all
    :func:`~repro.sketch.qdigest.encoded_bits` needs.  Temporaries are
    contributors x (tags + shared keys), never contributors x distinct
    values.
    """

    __slots__ = (
        "template",
        "tags",
        "_key",
        "_unique",
        "_per_tag",
        "_column",
        "_num_shared",
        "_runs",
    )

    def __init__(
        self,
        ids: np.ndarray,
        values: np.ndarray,
        eps: float,
        r_min: int,
        r_max: int,
        codes: np.ndarray | None = None,
        names: Sequence[str] = (),
    ) -> None:
        super().__init__(ids)
        #: The empty digest of these parameters (validated on creation).
        self.template = QDigest.empty(eps, r_min, r_max)
        universe = self.template.universe_size
        leaf = np.asarray(values).astype(np.int64, copy=False) - r_min
        outside = (leaf < 0) | (leaf >= universe)
        if outside.any():
            bad = int(leaf[outside.argmax()]) + r_min
            raise ConfigurationError(f"value {bad} outside universe [{r_min}, {r_max}]")
        #: The sorted distinct cell tags, or ``None`` for the untagged form.
        self.tags: tuple[str, ...] | None = None
        if codes is None:
            tag = np.zeros(len(leaf), dtype=np.int64)
            self._per_tag = np.bincount(tag, minlength=1)
        else:
            per_name = np.bincount(codes, minlength=len(names))
            used = per_name > 0
            self.tags = tuple(compress(names, used.tolist()))
            tag = (np.cumsum(used) - 1)[codes]
            self._per_tag = per_name[used]
        num_tags = len(self._per_tag)
        self._key = tag * universe + leaf
        keys, key_of_row, rows_per_key = np.unique(
            self._key, return_inverse=True, return_counts=True
        )
        #: The rows' sorted distinct keys, each row's key index and the
        #: rows per key, which :meth:`root_payload` reuses.
        self._unique = (keys, key_of_row, rows_per_key)
        shared = rows_per_key > 1
        column_of_key = np.where(shared, num_tags + np.cumsum(shared) - 1, keys // universe)
        self._column = column_of_key[key_of_row]
        # Keys sort by tag, so each tag's shared columns form one run:
        # the runs' first shared columns and their tags.
        shared_tag = keys[shared] // universe
        starts = np.flatnonzero(np.diff(shared_tag, prepend=-1))
        self._num_shared = len(shared_tag)
        self._runs = (starts, shared_tag[starts])

    @property
    def lossless(self) -> bool:
        """Every tag has fewer than ``kappa`` contributors: no hop can
        compress, so the batch folds exactly."""
        return not len(self) or int(self._per_tag.max()) < self.template.kappa

    def columns(self) -> np.ndarray:
        if not self.lossless:
            raise ProtocolError("a compressing digest collection merges as objects")
        rows = len(self.ids)
        cols = np.zeros((rows, len(self._per_tag) + self._num_shared), dtype=np.int64)
        cols[np.arange(rows), self._column] = 1
        return cols

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_tags = len(self._per_tag)
        singles = sums[:, :num_tags]
        n = singles.copy()
        distinct = singles.copy()
        largest = (singles > 0).astype(np.int64)
        if self._num_shared:
            starts, owners = self._runs
            shared = sums[:, num_tags:]
            n[:, owners] += np.add.reduceat(shared, starts, axis=1)
            distinct[:, owners] += np.add.reduceat(
                (shared > 0).astype(np.int64), starts, axis=1
            )
            largest[:, owners] = np.maximum(
                largest[:, owners], np.maximum.reduceat(shared, starts, axis=1)
            )
        # frexp's exponent is the exact bit length of an integer below 2**53.
        bits = encoded_bits(
            distinct, np.frexp(largest)[1], n, self.template.levels, True
        )
        if self.tags is not None:
            bits += TAG_BITS
        return (bits * (n > 0)).sum(axis=1), distinct.sum(axis=1)

    def root_payload(
        self, sums: np.ndarray, reached: np.ndarray | None
    ) -> "SketchPayload | TaggedSketchPayload":
        template = self.template
        universe = template.universe_size
        keys, key_of_row, counts = self._unique
        if reached is not None:
            counts = np.bincount(key_of_row[reached], minlength=len(keys))
            kept = counts > 0
            keys, counts = keys[kept], counts[kept]
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

    def payloads(self) -> "dict[int, SketchPayload | TaggedSketchPayload]":
        template = self.template
        universe = template.universe_size
        out: dict[int, SketchPayload | TaggedSketchPayload] = {}
        for vertex, key in zip(self.ids.tolist(), self._key.tolist()):
            tag, leaf = divmod(key, universe)
            digest = QDigest.from_values(
                (template.r_min + leaf,), template.eps, template.r_min, template.r_max
            )
            out[vertex] = (
                SketchPayload(digest)
                if self.tags is None
                else TaggedSketchPayload.single(self.tags[tag], digest)
            )
        return out


def one_value_digests(
    ids: np.ndarray,
    values: np.ndarray,
    eps: float,
    r_min: int,
    r_max: int,
    codes: np.ndarray | None = None,
    names: Sequence[str] = (),
) -> "DigestBatch | dict[int, SketchPayload | TaggedSketchPayload]":
    """Every contributor's one-value q-digest, ready for a convergecast.

    ``values[i]`` (and, when tagged, the tag ``names[codes[i]]``) belong
    to vertex ``ids[i]``, as in :class:`DigestBatch`.  Returns the batch
    when no hop can compress (every tag has fewer than ``kappa``
    contributors) and otherwise the ``{vertex: payload}`` mapping, merged
    as objects: a compressing merge re-applies its threshold after each
    pairwise merge, so a hop's size depends on the fold's merge order, not
    only on its column sums.
    """
    ids = np.asarray(ids, dtype=np.int64)
    batch = DigestBatch(ids, values, eps, r_min, r_max, codes, names)
    return batch if batch.lossless else batch.payloads()
