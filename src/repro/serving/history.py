"""Root-side incremental history: windows, decay, cached reads.

The serving layer answers "what is the quantile *now*"; this module makes
the recent past queryable too, entirely at the root, at zero radio cost.
A :class:`HistoryStore` absorbs every round's
:class:`~repro.serving.queries.QueryAnswer` stream into bounded-memory
per-(query, label) summaries and serves arbitrary read traffic from them:

* :meth:`HistoryStore.latest` — the last served value with an honest
  ``age_rounds`` staleness count and the trustworthy flag it was served
  with;
* :meth:`HistoryStore.window` — a φ-quantile (or stats) over the last
  ``n`` retained rounds, from a fixed-capacity ring;
* :meth:`HistoryStore.decayed` — an exponentially time-decayed estimate,
  the half-life a read-time parameter (weights are computed over the
  ring, ages measured in absorbed rounds, so degraded rounds never
  perturb the estimate);
* :meth:`HistoryStore.at_round` — "what did we serve around round r?",
  answered from the ring when ``r`` is still retained and from a bounded,
  geometrically-thinned checkpoint list otherwise;
* :meth:`HistoryStore.summary_quantile` — a quantile over the *entire*
  absorbed history from an incremental batch-interpolation estimator in
  the style of Chambers et al.'s IQagent ("Monitoring Networked
  Applications With Incremental Quantile Estimation"): a fixed p-value
  grid refreshed against each sorted batch of new observations, O(grid +
  batch) memory regardless of run length.

Reads are memoized per query in a read cache with hit/miss counters; the
cache is invalidated only when new (non-degraded) data is absorbed, so a
dashboard hammering the same windows pays one computation per round.

Staleness discipline: every absorb advances the store's clock, but
answers from degraded rounds (``reason == "degraded"`` — the fault
driver re-serving stale cached values) are **excluded from summaries by
default**; they only age the ``latest`` read.  History therefore never
launders a stale value into a window quantile, and it survives both
degraded rounds and query deregistration (tracks are kept until
:meth:`HistoryStore.drop` is called explicitly).
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.queries import QueryAnswer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.experiment import RoundReport

#: Track name used for a fault driver's own (primary) answer stream.
PRIMARY_TRACK = "__primary__"
#: Label of the primary track's single series.
PRIMARY_LABEL = "answer"

#: Default number of interior p-value grid points of the incremental
#: summary (two endpoint slots are added on top).
DEFAULT_GRID = 65
#: Default batch-buffer size of the incremental summary.
DEFAULT_BATCH = 64
#: Default ring capacity: the largest answerable window.
DEFAULT_WINDOW_CAPACITY = 128
#: Default bound on retained checkpoints (per series).
DEFAULT_MAX_CHECKPOINTS = 64


class IncrementalQuantile:
    """Bounded-memory incremental quantile estimator (IQagent idiom).

    Observations accumulate in a batch buffer; when the buffer fills (or
    a quantile is read) the sorted batch is merged into a fixed grid of
    (p-value, quantile) pairs by interpolating the piecewise-linear CDF
    implied by the current grid against the batch's empirical CDF.  Memory
    is ``O(grid + batch)`` forever; each absorbed batch costs
    ``O(batch log batch + grid)``.
    """

    def __init__(
        self, grid: int = DEFAULT_GRID, batch: int = DEFAULT_BATCH
    ) -> None:
        if grid < 3:
            raise ConfigurationError(f"summary grid needs >= 3 points, got {grid}")
        if batch < 1:
            raise ConfigurationError(f"summary batch must be >= 1, got {batch}")
        self._nq = grid + 2  # interior grid plus the two extreme slots
        self._nbuf = batch
        # Interior p-values: a uniform middle block over [0.1, 0.9] with
        # geometrically concentrated tails (ratio 0.87191909), so extreme
        # quantiles (p95/p99) keep grid resolution.  The two end slots
        # track the running extremes and get data-dependent p-values on
        # each merge.
        tail = grid // 3
        mid = grid - 2 * tail
        interior = np.empty(grid)
        if mid == 1:
            interior[tail] = 0.5
        else:
            interior[tail : tail + mid] = np.linspace(0.1, 0.9, mid)
        for j in range(tail - 1, -1, -1):
            interior[j] = 0.87191909 * interior[j + 1]
            interior[grid - 1 - j] = 1.0 - interior[j]
        self._pval = np.empty(self._nq)
        self._pval[1:-1] = interior
        self._pval[0] = 0.0
        self._pval[-1] = 1.0
        self._qile = np.zeros(self._nq)
        self._buffer: list[float] = []
        self._merged = 0  # observations already folded into the grid
        self._lo = np.inf  # running extremes across *all* observations
        self._hi = -np.inf

    @property
    def count(self) -> int:
        """Total observations absorbed so far."""
        return self._merged + len(self._buffer)

    @property
    def size(self) -> int:
        """Bound on retained items: grid slots plus the batch capacity."""
        return self._nq + self._nbuf

    def add(self, value: float) -> None:
        """Absorb one observation; merges a full batch automatically."""
        value = float(value)
        self._buffer.append(value)
        self._lo = min(self._lo, value)
        self._hi = max(self._hi, value)
        if len(self._buffer) >= self._nbuf:
            self._merge()

    def quantile(self, phi: float) -> float:
        """The current φ-quantile estimate; flushes the pending batch."""
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
        if self.count == 0:
            raise ConfigurationError("no observations absorbed yet")
        if self._buffer:
            self._merge()
        return float(np.interp(phi, self._pval, self._qile))

    def _merge(self) -> None:
        """Fold the sorted batch into the grid (batch CDF interpolation)."""
        batch = sorted(self._buffer)
        nd, nt, nq = len(batch), self._merged, self._nq
        total = nt + nd
        pval, qile = self._pval, self._qile
        fresh = np.empty(nq)
        qile[0] = fresh[0] = self._lo
        qile[-1] = fresh[-1] = self._hi
        pval[0] = min(0.5 / total, 0.5 * pval[1])
        pval[-1] = max(1.0 - 0.5 / total, 0.5 * (1.0 + pval[-2]))
        jd, jq = 0, 1
        t_old = t_new = 0.0
        q_old = q_new = qile[0]
        for iq in range(1, nq - 1):
            # Walk the merged CDF's discontinuities (grid slopes + batch
            # steps) until the target rank is crossed, then interpolate.
            target = total * pval[iq]
            if t_new < target:
                while True:
                    grid_next = jq < nq and (jd >= nd or qile[jq] < batch[jd])
                    if grid_next:
                        q_new = qile[jq]
                        t_new = jd + nt * pval[jq]
                        jq += 1
                        if t_new >= target:
                            break
                    else:
                        q_new = batch[jd]
                        t_new = t_old
                        if qile[jq] > qile[jq - 1]:
                            t_new += (
                                nt
                                * (pval[jq] - pval[jq - 1])
                                * (q_new - q_old)
                                / (qile[jq] - qile[jq - 1])
                            )
                        jd += 1
                        if t_new >= target:
                            break
                        t_old = t_new
                        t_new += 1.0
                        q_old = q_new
                        if t_new >= target:
                            break
                    t_old = t_new
                    q_old = q_new
            if t_new == t_old:
                fresh[iq] = 0.5 * (q_old + q_new)
            else:
                fresh[iq] = q_old + (q_new - q_old) * (target - t_old) / (
                    t_new - t_old
                )
            t_old = t_new
            q_old = q_new
        self._qile = fresh
        self._merged = total
        self._buffer.clear()


@dataclass(frozen=True, slots=True)
class HistoryRead:
    """One answered history read.

    ``round_index`` is the newest absorbed round the value reflects;
    ``age_rounds`` is its distance from the store's clock (every absorb —
    degraded or not — advances the clock, so a value re-read during an
    outage honestly ages).  ``count`` is the number of observations
    backing the value; ``cached`` tells whether the read was served from
    the per-query read cache.  The store builds every instance with
    :func:`_history_read`.
    """

    query: str
    label: str
    op: str
    value: float | None
    round_index: int
    age_rounds: int
    trustworthy: bool
    count: int
    cached: bool = False


_new = object.__new__
_set_query = HistoryRead.query.__set__
_set_label = HistoryRead.label.__set__
_set_op = HistoryRead.op.__set__
_set_value = HistoryRead.value.__set__
_set_round_index = HistoryRead.round_index.__set__
_set_age_rounds = HistoryRead.age_rounds.__set__
_set_trustworthy = HistoryRead.trustworthy.__set__
_set_count = HistoryRead.count.__set__
_set_cached = HistoryRead.cached.__set__


def _history_read(
    query: str,
    label: str,
    op: str,
    value: float | None,
    round_index: int,
    age_rounds: int,
    trustworthy: bool,
    count: int,
    cached: bool,
) -> HistoryRead:
    """``HistoryRead(...)``, with the slots written through their
    descriptors instead of the frozen ``__init__``: the one constructor of
    fresh reads, cached copies and re-stamped ages."""
    read = _new(HistoryRead)
    _set_query(read, query)
    _set_label(read, label)
    _set_op(read, op)
    _set_value(read, value)
    _set_round_index(read, round_index)
    _set_age_rounds(read, age_rounds)
    _set_trustworthy(read, trustworthy)
    _set_count(read, count)
    _set_cached(read, cached)
    return read


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one query's read cache."""

    query: str
    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _linear_quantile(values: list[float], phi: float) -> float:
    """``float(np.quantile(values, phi))`` for a float ``phi``, bit for bit,
    in Python floats: NumPy's ``linear`` method on the sorted values.

    The virtual index is ``(n - 1) * phi``; at or past the last value both
    neighbours are the last value and the weight is the index plus one,
    as NumPy's index clamp leaves it.  The interpolation is NumPy's
    two-sided ``_lerp``, and a NaN anywhere makes the result NaN.
    """
    if any(math.isnan(value) for value in values):
        return math.nan
    ordered = sorted(values)
    last = len(ordered) - 1
    index = last * phi
    if index >= last:
        below = above = ordered[-1]
        weight = index + 1
    else:
        lower = math.floor(index)
        below, above = ordered[lower], ordered[lower + 1]
        weight = index - lower
    step = above - below
    return above - step * (1 - weight) if weight >= 0.5 else below + step * weight


class _LabelSeries:
    """The bounded per-(query, label) state: ring + summary + checkpoints."""

    __slots__ = (
        "ring",
        "ring_trust",
        "summary",
        "checkpoint_rounds",
        "checkpoint_values",
        "checkpoint_trust",
        "checkpoint_every",
        "max_checkpoints",
        "last_round",
        "last_value",
        "last_trustworthy",
        "absorbed",
    )

    def __init__(self, window_capacity: int, max_checkpoints: int) -> None:
        self.ring: deque[tuple[int, float]] = deque(maxlen=window_capacity)
        #: Per ring entry, per checkpoint: the flag its round was absorbed
        #: with, kept beside the ``(round, value)`` pairs.
        self.ring_trust: deque[bool] = deque(maxlen=window_capacity)
        self.summary = IncrementalQuantile()
        self.checkpoint_rounds: list[int] = []
        self.checkpoint_values: list[float] = []
        self.checkpoint_trust: list[bool] = []
        self.checkpoint_every = 1
        self.max_checkpoints = max_checkpoints
        self.last_round = -1
        self.last_value: float | None = None
        self.last_trustworthy = False
        self.absorbed = 0

    def absorb(self, round_index: int, value: float, trustworthy: bool) -> None:
        self.ring.append((round_index, value))
        self.ring_trust.append(trustworthy)
        self.summary.add(value)
        self.last_round = round_index
        self.last_value = value
        self.last_trustworthy = trustworthy
        if self.absorbed % self.checkpoint_every == 0:
            self.checkpoint_rounds.append(round_index)
            self.checkpoint_values.append(value)
            self.checkpoint_trust.append(trustworthy)
            if len(self.checkpoint_rounds) > self.max_checkpoints:
                # Geometric thinning: halve the resolution, keep the span.
                self.checkpoint_rounds = self.checkpoint_rounds[::2]
                self.checkpoint_values = self.checkpoint_values[::2]
                self.checkpoint_trust = self.checkpoint_trust[::2]
                self.checkpoint_every *= 2
        self.absorbed += 1

    def size(self) -> int:
        """Retained items — constant in the number of absorbed rounds."""
        ring_cap = self.ring.maxlen if self.ring.maxlen is not None else 0
        return ring_cap + self.summary.size + self.max_checkpoints


class _QueryTrack:
    """Per-query state: label series, skipped degraded rounds, the cache."""

    def __init__(self, store: "HistoryStore") -> None:
        self.store = store
        self.series: dict[str, _LabelSeries] = {}
        self.degraded_skipped = 0
        self.cache: dict[tuple, HistoryRead] = {}
        self.hits = 0
        self.misses = 0

    def series_for(self, label: str) -> _LabelSeries:
        series = self.series.get(label)
        if series is None:
            series = self.series[label] = _LabelSeries(
                self.store.window_capacity, self.store.max_checkpoints
            )
        return series


class HistoryStore:
    """Bounded-memory per-query history with a synchronous read API.

    Args:
        window_capacity: ring size — the largest answerable window.
        max_checkpoints: bound on retained checkpoints per series.
        include_degraded: absorb degraded-round (re-served, stale) answers
            into summaries too.  Off by default: a degraded round only
            advances the clock, so ``latest`` ages but windows, decay and
            summaries keep reflecting real observations.
    """

    def __init__(
        self,
        *,
        window_capacity: int = DEFAULT_WINDOW_CAPACITY,
        max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
        include_degraded: bool = False,
    ) -> None:
        if window_capacity < 1:
            raise ConfigurationError(
                f"window_capacity must be >= 1, got {window_capacity}"
            )
        self.window_capacity = window_capacity
        self.max_checkpoints = max_checkpoints
        self.include_degraded = include_degraded
        self.current_round = -1
        self._tracks: dict[str, _QueryTrack] = {}

    # -- absorption -----------------------------------------------------------

    def absorb_answers(
        self, round_index: int, answers: Iterable[QueryAnswer]
    ) -> None:
        """Absorb one round's answer fan-out (the runner calls this).

        Answers whose ``reason`` is ``"degraded"`` are re-served stale
        values: they advance the clock and the staleness bookkeeping but
        (by default) never reach the summaries.
        """
        self.current_round = max(self.current_round, round_index)
        for answer in answers:
            track = self._track(answer.query)
            if answer.reason == "degraded" and not self.include_degraded:
                track.degraded_skipped += 1
                continue
            absorbed_any = False
            for item in answer.items:
                if item.value is None:
                    continue
                track.series_for(item.label).absorb(
                    round_index, float(item.value), answer.trustworthy
                )
                absorbed_any = True
            if absorbed_any:
                track.cache.clear()

    def absorb_report(self, report: "RoundReport") -> None:
        """Absorb a fault driver's own answer as the primary track."""
        self.current_round = max(self.current_round, report.round_index)
        track = self._track(PRIMARY_TRACK)
        if report.degraded and not self.include_degraded:
            track.degraded_skipped += 1
            return
        if report.answer is None:
            return
        track.series_for(PRIMARY_LABEL).absorb(
            report.round_index, float(report.answer), report.trustworthy
        )
        track.cache.clear()

    # -- read API -------------------------------------------------------------

    def latest(self, query: str, label: str | None = None) -> HistoryRead:
        """The last absorbed value, with honest staleness.

        ``age_rounds`` counts rounds since the value was *observed* (not
        merely re-served): through a degraded stretch it keeps growing
        even though the serving layer re-stamps its answers every round.
        """
        track = self._track_or_raise(query)
        series = self._series_or_raise(track, query, label)
        if series.last_value is None:
            raise ConfigurationError(f"query {query!r} has no absorbed data")
        return self._clock_read(
            query, self._label(track, label), "latest", series, series.last_value, 1
        )

    def window(
        self,
        query: str,
        n: int,
        label: str | None = None,
        phi: float = 0.5,
    ) -> HistoryRead:
        """φ-quantile of the last ``n`` retained rounds (ring-bounded)."""
        if n < 1:
            raise ConfigurationError(f"window size must be >= 1, got {n}")
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
        track = self._track_or_raise(query)
        resolved = self._label(track, label)
        key = ("window", resolved, n, phi)
        return self._cached(track, query, key, self._compute_window)

    def decayed(
        self,
        query: str,
        half_life: float,
        label: str | None = None,
    ) -> HistoryRead:
        """Exponentially decayed mean over the ring.

        Ages are measured from the newest *retained* observation in
        absorbed rounds, so the estimate is a pure function of the data —
        degraded rounds (excluded from the ring) cannot move it.
        """
        if not half_life > 0:  # NaN fails too
            raise ConfigurationError(
                f"half_life must be > 0, got {half_life}"
            )
        track = self._track_or_raise(query)
        resolved = self._label(track, label)
        key = ("decayed", resolved, float(half_life))
        return self._cached(track, query, key, self._compute_decayed)

    def at_round(
        self, query: str, round_index: int, label: str | None = None
    ) -> HistoryRead:
        """The value served at (or last before) ``round_index``.

        Exact while the round is still in the ring; beyond that, the
        nearest earlier checkpoint answers, its distance reported as
        ``age_rounds`` relative to the requested round.  The read is
        trustworthy only when it found ``round_index`` itself and that
        round was absorbed trustworthy.
        """
        track = self._track_or_raise(query)
        resolved = self._label(track, label)
        key = ("at-round", resolved, round_index)
        return self._cached(track, query, key, self._compute_at_round)

    def summary_quantile(
        self, query: str, phi: float, label: str | None = None
    ) -> HistoryRead:
        """φ-quantile of the entire absorbed history (IQagent summary)."""
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
        track = self._track_or_raise(query)
        resolved = self._label(track, label)
        key = ("summary", resolved, float(phi))
        return self._cached(track, query, key, self._compute_summary)

    # -- introspection --------------------------------------------------------

    def queries(self) -> tuple[str, ...]:
        """Tracked query names, registration order (primary track included)."""
        return tuple(self._tracks)

    def labels(self, query: str) -> tuple[str, ...]:
        """Labels with absorbed data for one query."""
        return tuple(self._track_or_raise(query).series)

    def cache_stats(self, query: str | None = None) -> tuple[CacheStats, ...]:
        """Read-cache counters, one record per tracked query."""
        names = [query] if query is not None else list(self._tracks)
        return tuple(
            CacheStats(
                query=name,
                hits=self._track_or_raise(name).hits,
                misses=self._track_or_raise(name).misses,
                entries=len(self._track_or_raise(name).cache),
            )
            for name in names
        )

    def degraded_skipped(self, query: str) -> int:
        """Degraded-round answers excluded from this query's summaries."""
        return self._track_or_raise(query).degraded_skipped

    def size_items(self, query: str) -> int:
        """Bound on retained items across the query's series — constant in
        the number of absorbed rounds (asserted by the memory tests)."""
        track = self._track_or_raise(query)
        return sum(series.size() for series in track.series.values())

    def drop(self, query: str) -> None:
        """Explicitly forget a query's history (deregistering keeps it)."""
        self._tracks.pop(query, None)

    # -- internals ------------------------------------------------------------

    def _track(self, query: str) -> _QueryTrack:
        track = self._tracks.get(query)
        if track is None:
            track = self._tracks[query] = _QueryTrack(self)
        return track

    def _track_or_raise(self, query: str) -> _QueryTrack:
        track = self._tracks.get(query)
        if track is None:
            raise ConfigurationError(f"no history for query {query!r}")
        return track

    def _label(self, track: _QueryTrack, label: str | None) -> str:
        if label is not None:
            return label
        if not track.series:
            raise ConfigurationError("query has no absorbed data yet")
        return next(iter(track.series))

    def _series_or_raise(
        self, track: _QueryTrack, query: str, label: str | None
    ) -> _LabelSeries:
        resolved = self._label(track, label)
        series = track.series.get(resolved)
        if series is None:
            raise ConfigurationError(
                f"query {query!r} has no series labelled {resolved!r}"
            )
        return series

    def _cached(self, track, query: str, key: tuple, compute) -> HistoryRead:
        hit = track.cache.get(key)
        if hit is not None:
            track.hits += 1
            age, trustworthy = hit.age_rounds, hit.trustworthy
            if key[0] != "at-round":
                # Staleness is clock-relative for window/decayed/summary
                # reads: re-stamp the age on every hit, and drop the
                # trustworthy flag once the value no longer reflects the
                # current round (the clock only moves forward, so the
                # stored read's flag with ``age == 0`` is that flag).
                # ``at_round`` ages relative to the requested round
                # instead, which never moves.
                age = self.current_round - hit.round_index
                trustworthy = trustworthy and age == 0
            return _history_read(
                hit.query,
                hit.label,
                hit.op,
                hit.value,
                hit.round_index,
                age,
                trustworthy,
                hit.count,
                True,
            )
        series = track.series.get(key[1])
        if series is None:
            raise ConfigurationError(
                f"query {query!r} has no series labelled {key[1]!r}"
            )
        track.misses += 1
        read = compute(query, key, series)
        track.cache[key] = read
        return read

    def _clock_read(
        self,
        query: str,
        label: str,
        op: str,
        series: _LabelSeries,
        value: float,
        count: int,
    ) -> HistoryRead:
        """A read reflecting the series' newest absorbed round, aged against
        the store's clock: trustworthy only while that round is current."""
        newest = series.last_round
        return _history_read(
            query,
            label,
            op,
            value,
            newest,
            self.current_round - newest,
            series.last_trustworthy and newest == self.current_round,
            count,
            False,
        )

    def _compute_window(
        self, query: str, key: tuple, series: _LabelSeries
    ) -> HistoryRead:
        _, label, n, phi = key
        if not series.ring:
            raise ConfigurationError(f"query {query!r} has no absorbed data")
        ring = series.ring
        retained = [value for _, value in islice(ring, max(0, len(ring) - n), None)]
        value = _linear_quantile(retained, phi)
        return self._clock_read(query, label, "window", series, value, len(retained))

    def _compute_decayed(
        self, query: str, key: tuple, series: _LabelSeries
    ) -> HistoryRead:
        _, label, half_life = key
        if not series.ring:
            raise ConfigurationError(f"query {query!r} has no absorbed data")
        ring = np.fromiter(chain.from_iterable(series.ring), float, 2 * len(series.ring))
        rounds, values = ring[0::2], ring[1::2]
        weights = np.exp2(-(rounds[-1] - rounds) / half_life)
        value = float(np.sum(weights * values) / np.sum(weights))
        return self._clock_read(query, label, "decayed", series, value, len(values))

    def _compute_at_round(
        self, query: str, key: tuple, series: _LabelSeries
    ) -> HistoryRead:
        _, label, round_index = key
        # The ring answers exactly while the round is retained; beyond it,
        # the nearest earlier checkpoint does.  Only an exact-round hit
        # absorbed trustworthy reads trustworthy.
        found = next(
            (
                (r, value, trusted)
                for (r, value), trusted in zip(
                    reversed(series.ring), reversed(series.ring_trust)
                )
                if r <= round_index
            ),
            None,
        )
        if found is None:
            pos = bisect.bisect_right(series.checkpoint_rounds, round_index) - 1
            if pos < 0:
                raise ConfigurationError(
                    f"no history for query {query!r} at or before round "
                    f"{round_index}"
                )
            found = (
                series.checkpoint_rounds[pos],
                series.checkpoint_values[pos],
                series.checkpoint_trust[pos],
            )
        absorbed, value, trusted = found
        return _history_read(
            query,
            label,
            "at-round",
            value,
            absorbed,
            round_index - absorbed,
            trusted and absorbed == round_index,
            1,
            False,
        )

    def _compute_summary(
        self, query: str, key: tuple, series: _LabelSeries
    ) -> HistoryRead:
        _, label, phi = key
        return self._clock_read(
            query,
            label,
            "summary",
            series,
            series.summary.quantile(phi),
            series.summary.count,
        )
