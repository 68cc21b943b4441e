"""The root-side history service: summaries, windows, decay, cached reads.

Three property families pin the layer (hypothesis):

* window reads match a brute-force recompute over the retained rounds;
* decayed estimates are monotone in the half-life for monotone data;
* degraded-round answers never perturb any summary.

Plus unit coverage of the incremental (IQagent-style) estimator's
accuracy and bounded memory, checkpointed ``at_round`` reads, the read
cache's hit/miss accounting, and the runner/driver wiring.
"""

from __future__ import annotations

import math
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultDriver, FaultPlan, ScheduledOutages
from repro.network.routing import build_routing_tree
from repro.network.topology import build_physical_graph
from repro.serving import (
    PRIMARY_TRACK,
    AnswerItem,
    HistoryRead,
    HistoryStore,
    IncrementalQuantile,
    MultiQueryRunner,
    PhiQuery,
    QueryAnswer,
    QueryRegistry,
)
from repro.serving.history import _history_read
from repro.types import QuerySpec

from tests.helpers import SequenceWorkload

RANGE = 10.0


def make_answer(
    round_index: int,
    value: float | None,
    *,
    query: str = "q",
    label: str = "p50",
    reason: str | None = None,
    trustworthy: bool = True,
    age_rounds: int = 0,
) -> QueryAnswer:
    items = () if value is None else (AnswerItem(label=label, value=value),)
    return QueryAnswer(
        query=query,
        kind="phi",
        round_index=round_index,
        items=items,
        trustworthy=trustworthy,
        reason=reason,
        rank_error_budget=0.0,
        energy_share_mj=0.0,
        age_rounds=age_rounds,
    )


def fill(store: HistoryStore, values, *, start: int = 0, **kwargs) -> None:
    for offset, value in enumerate(values):
        store.absorb_answers(
            start + offset, [make_answer(start + offset, value, **kwargs)]
        )


class TestIncrementalQuantile:
    def test_tracks_true_quantiles_of_a_large_stream(self):
        rng = np.random.default_rng(0)
        data = rng.normal(500.0, 120.0, size=20_000)
        iq = IncrementalQuantile()
        for value in data:
            iq.add(value)
        for phi in (0.05, 0.25, 0.5, 0.9, 0.99):
            truth = float(np.quantile(data, phi))
            spread = float(np.quantile(data, 0.995) - np.quantile(data, 0.005))
            assert abs(iq.quantile(phi) - truth) < 0.02 * spread, phi

    def test_extremes_are_exact(self):
        iq = IncrementalQuantile(grid=9, batch=8)
        data = [3.0, -7.0, 42.0, 0.5] * 10
        for value in data:
            iq.add(value)
        assert iq.quantile(0.0) == -7.0
        assert iq.quantile(1.0) == 42.0

    def test_memory_is_bounded_regardless_of_stream_length(self):
        iq = IncrementalQuantile(grid=17, batch=16)
        size_after_little = None
        for index in range(5_000):
            iq.add(float(index % 311))
            if index == 50:
                size_after_little = iq.size
        assert iq.size == size_after_little
        assert len(iq._buffer) <= 16
        assert iq.count == 5_000

    def test_small_streams_are_served_too(self):
        iq = IncrementalQuantile()
        iq.add(5.0)
        assert iq.quantile(0.5) == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IncrementalQuantile(grid=2)
        with pytest.raises(ConfigurationError):
            IncrementalQuantile(batch=0)
        iq = IncrementalQuantile()
        with pytest.raises(ConfigurationError):
            iq.quantile(0.5)  # nothing absorbed
        iq.add(1.0)
        with pytest.raises(ConfigurationError):
            iq.quantile(1.5)


class TestWindowReads:
    def test_window_matches_brute_force(self):
        store = HistoryStore(window_capacity=32)
        values = [float(v) for v in (5, 1, 9, 4, 4, 8, 2, 7)]
        fill(store, values)
        for n in (1, 3, 8):
            for phi in (0.0, 0.5, 0.9):
                read = store.window("q", n, "p50", phi=phi)
                assert read.value == pytest.approx(
                    float(np.quantile(values[-n:], phi))
                )
                assert read.count == n

    def test_window_larger_than_retention_serves_what_is_kept(self):
        store = HistoryStore(window_capacity=4)
        fill(store, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        read = store.window("q", 100, "p50")
        assert read.count == 4
        assert read.value == pytest.approx(np.median([3.0, 4.0, 5.0, 6.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(0, 1000, allow_nan=False, width=32),
            min_size=1,
            max_size=60,
        ),
        n=st.integers(1, 60),
        phi=st.floats(0.0, 1.0),
    )
    def test_window_quantile_property(self, values, n, phi):
        store = HistoryStore(window_capacity=64)
        fill(store, values)
        read = store.window("q", n, "p50", phi=phi)
        expected = float(np.quantile(values[-n:], phi))
        assert read.value == pytest.approx(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-1e300, 1e300, allow_nan=False),
                st.integers(-3, 3).map(float),
                st.just(math.nan),
            ),
            min_size=1,
            max_size=64,
        ),
        phi=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.5, 1.0))),
    )
    def test_window_is_numpy_quantile_bit_for_bit(self, values, phi):
        """The cold read reproduces ``np.quantile``'s default method in
        Python floats: ties, φ at 0 and 1, huge magnitudes and NaN.  Only
        the sign of a zero may differ, since NumPy leaves the order of
        equal values to its partition."""
        store = HistoryStore(window_capacity=64)
        fill(store, values)
        ours = store.window("q", len(values), "p50", phi=phi).value
        expected = float(np.quantile(np.array(values), phi))
        if math.isnan(expected) or expected == 0.0:
            assert math.isnan(ours) == math.isnan(expected)
            assert ours == expected or math.isnan(ours)
        else:
            assert struct.pack("<d", ours) == struct.pack("<d", expected)

    def test_validation(self):
        store = HistoryStore()
        fill(store, [1.0])
        with pytest.raises(ConfigurationError):
            store.window("q", 0, "p50")
        with pytest.raises(ConfigurationError):
            store.window("q", 4, "p50", phi=2.0)
        with pytest.raises(ConfigurationError):
            store.window("missing", 4)


class TestDecayedReads:
    def test_decayed_is_the_exponentially_weighted_mean(self):
        store = HistoryStore()
        fill(store, [10.0, 20.0, 40.0])
        weights = np.exp2(-np.array([2.0, 1.0, 0.0]) / 2.0)
        expected = float(
            np.sum(weights * np.array([10.0, 20.0, 40.0])) / np.sum(weights)
        )
        assert store.decayed("q", 2.0, "p50").value == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
        skipped=st.sets(st.integers(0, 39)),
        half_life=st.floats(0.01, 500.0),
    )
    def test_decayed_is_the_list_formula_bit_for_bit(self, values, skipped, half_life):
        """The ring converted in one call gives the float bits of the
        per-field list conversions (rounds with gaps from degraded rounds
        included)."""
        store = HistoryStore(window_capacity=16)
        ring = []
        for round_index, value in enumerate(values):
            degraded = round_index in skipped
            store.absorb_answers(
                round_index,
                [make_answer(round_index, value, reason="degraded" if degraded else None)],
            )
            if not degraded:
                ring = [*ring, (round_index, value)][-16:]
        if not ring:
            return
        rounds = np.array([r for r, _ in ring], dtype=float)
        kept = np.array([value for _, value in ring])
        weights = np.exp2(-(rounds[-1] - rounds) / half_life)
        expected = float(np.sum(weights * kept) / np.sum(weights))
        got = store.decayed("q", half_life, "p50").value
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_short_half_life_tracks_the_latest_value(self):
        store = HistoryStore()
        fill(store, [100.0, 200.0, 900.0])
        assert store.decayed("q", 0.05, "p50").value == pytest.approx(
            900.0, rel=1e-3
        )

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(0, 1000, allow_nan=False, width=32),
            min_size=2,
            max_size=40,
        ),
        half_lives=st.lists(
            st.floats(0.1, 200.0, allow_nan=False),
            min_size=2,
            max_size=5,
            unique=True,
        ),
    )
    def test_decayed_monotone_in_half_life_for_monotone_data(
        self, values, half_lives
    ):
        # For a non-decreasing series, stretching the half-life shifts
        # weight toward older (smaller) observations, so the estimate can
        # only go down.
        values = sorted(values)
        store = HistoryStore(window_capacity=64)
        fill(store, values)
        estimates = [
            store.decayed("q", h, "p50").value for h in sorted(half_lives)
        ]
        for shorter, longer in zip(estimates, estimates[1:]):
            assert longer <= shorter + 1e-6

    def test_validation(self):
        store = HistoryStore()
        fill(store, [1.0])
        with pytest.raises(ConfigurationError):
            store.decayed("q", 0.0, "p50")


class TestDegradedExclusion:
    def degraded_answer(self, round_index, value, age):
        return make_answer(
            round_index,
            value,
            reason="degraded",
            trustworthy=False,
            age_rounds=age,
        )

    def test_degraded_rounds_age_latest_but_not_summaries(self):
        store = HistoryStore()
        fill(store, [10.0, 20.0, 30.0])
        before = {
            "window": store.window("q", 3, "p50").value,
            "decayed": store.decayed("q", 4.0, "p50").value,
            "summary": store.summary_quantile("q", 0.5, "p50").value,
        }
        # Three degraded rounds re-serve the stale cached 30.0.
        for r in (3, 4, 5):
            store.absorb_answers(r, [self.degraded_answer(r, 30.0, r - 2)])
        assert store.window("q", 3, "p50").value == before["window"]
        assert store.decayed("q", 4.0, "p50").value == before["decayed"]
        assert (
            store.summary_quantile("q", 0.5, "p50").value == before["summary"]
        )
        latest = store.latest("q", "p50")
        assert latest.age_rounds == 3
        assert not latest.trustworthy
        assert store.degraded_skipped("q") == 3

    def test_include_degraded_opt_in(self):
        store = HistoryStore(include_degraded=True)
        fill(store, [10.0])
        store.absorb_answers(1, [self.degraded_answer(1, 10.0, 1)])
        assert store.window("q", 8, "p50").count == 2
        assert store.degraded_skipped("q") == 0

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(0, 1000, allow_nan=False, width=32),
            min_size=1,
            max_size=40,
        ),
        degraded_after=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_degraded_rounds_never_perturb_summaries(
        self, values, degraded_after
    ):
        # Interleave degraded re-serves (of the running last value) into
        # the stream; every summary read must equal the clean store's.
        clean = HistoryStore(window_capacity=64)
        noisy = HistoryStore(window_capacity=64)
        round_index = 0
        last = None
        for offset, value in enumerate(values):
            clean.absorb_answers(
                round_index, [make_answer(round_index, value)]
            )
            noisy.absorb_answers(
                round_index, [make_answer(round_index, value)]
            )
            last = value
            round_index += 1
            if degraded_after[offset % len(degraded_after)]:
                noisy.absorb_answers(
                    round_index, [self.degraded_answer(round_index, last, 1)]
                )
                round_index += 1
        assert (
            noisy.window("q", 16, "p50").value
            == clean.window("q", 16, "p50").value
        )
        assert (
            noisy.decayed("q", 8.0, "p50").value
            == clean.decayed("q", 8.0, "p50").value
        )
        assert (
            noisy.summary_quantile("q", 0.5, "p50").value
            == clean.summary_quantile("q", 0.5, "p50").value
        )


class TestAtRound:
    def test_ring_answers_exactly(self):
        store = HistoryStore(window_capacity=16)
        fill(store, [float(10 * r) for r in range(10)])
        read = store.at_round("q", 7, "p50")
        assert read.value == 70.0
        assert read.round_index == 7
        assert read.age_rounds == 0
        assert read.trustworthy

    def test_checkpoints_answer_beyond_the_ring(self):
        store = HistoryStore(window_capacity=8, max_checkpoints=8)
        fill(store, [float(r) for r in range(200)])
        read = store.at_round("q", 60, "p50")
        # The answer comes from the nearest earlier checkpoint; honesty
        # about the distance is the contract.
        assert read.round_index <= 60
        assert read.value == float(read.round_index)
        assert read.age_rounds == 60 - read.round_index
        assert read.age_rounds < 200 / 2  # thinning keeps useful resolution

    def test_before_any_data_raises(self):
        store = HistoryStore(window_capacity=4, max_checkpoints=4)
        fill(store, [1.0, 2.0, 3.0], start=10)
        with pytest.raises(ConfigurationError):
            store.at_round("q", 5, "p50")

    def test_checkpoint_count_stays_bounded(self):
        store = HistoryStore(window_capacity=4, max_checkpoints=6)
        fill(store, [float(r) for r in range(3_000)])
        series = store._track_or_raise("q").series["p50"]
        assert len(series.checkpoint_rounds) <= 6

    @pytest.mark.parametrize(
        "capacity, checkpoints, rounds", [(4, 64, 12), (4, 4, 40)]
    )
    def test_untrusted_round_reads_untrusted(self, capacity, checkpoints, rounds):
        """A round absorbed with ``trustworthy=False`` reads untrusted at
        that round, from the ring and from its checkpoint after the ring
        evicted it (thinned or not), cold and cached; its trusted
        neighbours read trusted, and a fallback to an earlier round reads
        untrusted."""
        store = HistoryStore(window_capacity=capacity, max_checkpoints=checkpoints)
        trusted = [r % 3 != 1 for r in range(rounds)]
        for r, ok in enumerate(trusted):
            store.absorb_answers(r, [make_answer(r, float(r), trustworthy=ok)])
        series = store._track_or_raise("q").series["p50"]
        ring = [r for r, _ in series.ring]
        assert ring == list(range(rounds - capacity, rounds))
        evicted_hits = {
            trusted[r] for r in series.checkpoint_rounds if r not in ring
        }
        assert evicted_hits == {True, False}
        for r in range(rounds):
            cold = store.at_round("q", r, "p50")
            cached = store.at_round("q", r, "p50")
            assert not cold.cached and cached.cached
            assert cold.value == float(cold.round_index)
            exact = cold.round_index == r
            assert exact == (r in ring or r in series.checkpoint_rounds)
            assert cold.trustworthy is (exact and trusted[r])
            assert cached.trustworthy is cold.trustworthy

    @settings(max_examples=150, deadline=None)
    @given(
        absorbs=st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60
        ),
        capacity=st.integers(1, 6),
        checkpoints=st.integers(1, 8),
    )
    def test_at_round_trust_is_the_absorbed_flag_of_an_exact_hit(
        self, absorbs, capacity, checkpoints
    ):
        """Whatever the ring or the thinned checkpoints answer, the read is
        the absorbed value of the round it reports, and it is trustworthy
        exactly when that round is the requested one and was absorbed
        trustworthy; a cached read repeats the cold one."""
        store = HistoryStore(window_capacity=capacity, max_checkpoints=checkpoints)
        absorbed: dict[int, bool] = {}
        for r, (skip, ok) in enumerate(absorbs):
            if skip:
                continue  # a round with no answer: the next read falls back
            store.absorb_answers(r, [make_answer(r, float(r), trustworthy=ok)])
            absorbed[r] = ok
        if not absorbed:
            return
        for r in range(len(absorbs) + 2):
            try:
                cold = store.at_round("q", r, "p50")
            except ConfigurationError:
                # The first absorbed round is always a checkpoint.
                assert r < min(absorbed)
                continue
            assert cold.round_index in absorbed and cold.round_index <= r
            assert cold.value == float(cold.round_index)
            assert cold.trustworthy == (
                cold.round_index == r and absorbed[cold.round_index]
            )
            cached = store.at_round("q", r, "p50")
            assert cached.cached
            assert (cached.value, cached.round_index, cached.trustworthy) == (
                cold.value,
                cold.round_index,
                cold.trustworthy,
            )


class TestReadCache:
    def test_hits_and_misses_are_counted(self):
        store = HistoryStore()
        fill(store, [1.0, 2.0, 3.0])
        first = store.window("q", 2, "p50")
        second = store.window("q", 2, "p50")
        assert not first.cached and second.cached
        assert first.value == second.value
        stats = store.cache_stats("q")[0]
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_cache_invalidated_by_new_data_not_by_degraded_rounds(self):
        store = HistoryStore()
        fill(store, [1.0, 2.0])
        store.window("q", 2, "p50")
        # A degraded round does not invalidate: the data didn't change.
        store.absorb_answers(
            2,
            [
                make_answer(
                    2, 2.0, reason="degraded", trustworthy=False, age_rounds=1
                )
            ],
        )
        hit = store.window("q", 2, "p50")
        assert hit.cached
        assert hit.age_rounds == 1  # ... but staleness is re-stamped
        assert not hit.trustworthy
        # Fresh data invalidates.
        store.absorb_answers(3, [make_answer(3, 9.0)])
        fresh = store.window("q", 2, "p50")
        assert not fresh.cached
        assert fresh.value == pytest.approx(np.median([2.0, 9.0]))

    def test_memory_bound_is_constant_in_run_length(self):
        store = HistoryStore(window_capacity=16, max_checkpoints=8)
        fill(store, [float(r) for r in range(20)])
        small = store.size_items("q")
        fill(store, [float(r) for r in range(20, 2_000)], start=20)
        assert store.size_items("q") == small

    def test_drop_forgets_a_query(self):
        store = HistoryStore()
        fill(store, [1.0])
        store.drop("q")
        with pytest.raises(ConfigurationError):
            store.latest("q")

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: store.decayed("q", math.nan, "p50"),
            lambda store: store.decayed("q", -1.0, "p50"),
            lambda store: store.summary_quantile("q", 1.5, "p50"),
            lambda store: store.summary_quantile("q", -0.1, "p50"),
            lambda store: store.summary_quantile("q", math.nan, "p50"),
            lambda store: store.window("q", 2, "nope"),
            lambda store: store.decayed("q", 4.0, "nope"),
            lambda store: store.at_round("q", 1, "nope"),
            lambda store: store.summary_quantile("q", 0.5, "nope"),
        ],
        ids=[
            "decayed-nan",
            "decayed-negative",
            "summary-above",
            "summary-below",
            "summary-nan",
            "window-unknown-label",
            "decayed-unknown-label",
            "at-round-unknown-label",
            "summary-unknown-label",
        ],
    )
    def test_invalid_reads_raise_before_the_cache(self, read):
        """A rejected read neither counts a miss nor caches a value: a NaN
        half-life used to serve and cache a NaN marked trustworthy, an
        out-of-range summary φ counted a miss before the summary refused
        it, and so did a read for a label with no series."""
        store = HistoryStore()
        fill(store, [1.0, 2.0, 3.0])
        store.window("q", 2, "p50")
        before = store.cache_stats("q")
        with pytest.raises(ConfigurationError):
            read(store)
        assert store.cache_stats("q") == before

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.tuples(
            st.sampled_from(["q", "grid", ""]),
            st.sampled_from(["p50", "east:p95", ""]),
            st.sampled_from(["latest", "window", "decayed", "at-round", "summary"]),
            st.none() | st.floats(allow_nan=False),
            st.integers(-1, 10**6),
            st.integers(0, 10**6),
            st.booleans(),
            st.integers(0, 10**6),
            st.booleans(),
        )
    )
    def test_hot_constructor_equals_dataclass(self, fields):
        hot = _history_read(*fields)
        built = HistoryRead(*fields)
        assert type(hot) is HistoryRead
        assert hot == built
        assert hash(hot) == hash(built)
        assert repr(hot) == repr(built)
        with pytest.raises(FrozenInstanceError):
            hot.cached = not hot.cached

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("absorb"), st.floats(-50, 50) | st.none()),
                st.tuples(st.just("degraded"), st.floats(-50, 50)),
                st.tuples(
                    st.sampled_from(["window", "decayed", "at-round", "summary", "latest"]),
                    st.integers(1, 2),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(
        steps=[
            ("absorb", 1.0),
            ("window", 1),
            ("decayed", 1),
            ("at-round", 1),
            ("degraded", 2.0),
            ("window", 1),
            ("decayed", 1),
            ("at-round", 1),
            ("degraded", 3.0),
            ("window", 1),
            ("summary", 1),
        ]
    )
    def test_reads_equal_the_replace_copies(self, steps):
        """Fresh reads, cached copies and re-stamped ages equal the reads
        of a store whose cache copied with ``dataclasses.replace`` and
        stored every re-stamp, with equal cache counters after each step."""
        stores = (HistoryStore(window_capacity=8), ReplaceCopyStore(window_capacity=8))
        clock = 0
        for op, arg in steps:
            if op in ("absorb", "degraded"):
                degraded = op == "degraded"
                answer = make_answer(
                    clock,
                    arg,
                    reason="degraded" if degraded else None,
                    trustworthy=not degraded,
                )
                for store in stores:
                    store.absorb_answers(clock, [answer])
                clock += 1
                continue
            reads = []
            for store in stores:
                try:
                    reads.append(read_once(store, op, arg, clock))
                except ConfigurationError as error:
                    reads.append(str(error))
            assert reads[0] == reads[1]
            assert stores[0].cache_stats() == stores[1].cache_stats()


class ReplaceCopyStore(HistoryStore):
    """The read cache as it was: each hit copied the stored read with
    ``dataclasses.replace`` and a changed age was stored back re-stamped."""

    def _cached(self, track, query, key, compute):
        hit = track.cache.get(key)
        if hit is not None:
            track.hits += 1
            if key[0] != "at-round":
                age = self.current_round - hit.round_index
                if age != hit.age_rounds:
                    hit = replace(
                        hit, age_rounds=age, trustworthy=hit.trustworthy and age == 0
                    )
                    track.cache[key] = hit
            return replace(hit, cached=True)
        return super()._cached(track, query, key, compute)


def read_once(store: HistoryStore, op: str, arg: int, clock: int):
    if op == "window":
        return store.window("q", arg, "p50", phi=0.25 * arg)
    if op == "decayed":
        return store.decayed("q", float(arg), "p50")
    if op == "at-round":
        return store.at_round("q", max(0, clock - arg), "p50")
    if op == "summary":
        return store.summary_quantile("q", 0.4 * arg, "p50")
    return store.latest("q", "p50")


class TestWiring:
    def build_runner(self, outages=None, registry=None):
        positions = [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0)]
        graph = build_physical_graph(np.asarray(positions, dtype=float), RANGE)
        tree = build_routing_tree(graph, root=0)
        rng = np.random.default_rng(3)
        rounds = [rng.integers(100, 900, size=3) for _ in range(8)]
        if registry is None:
            registry = QueryRegistry()
            registry.register(PhiQuery("grid", phis=(0.5,)))
        plan = FaultPlan(
            outages=ScheduledOutages(outages) if outages else None
        )
        return MultiQueryRunner(
            registry,
            QuerySpec(r_min=0, r_max=1023),
            tree,
            SequenceWorkload(rounds),
            plan,
            graph=graph,
            radio_range=RANGE,
        )

    def test_runner_absorbs_answers_and_primary_track(self):
        runner = self.build_runner()
        runner.run(8)
        store = runner.history
        assert set(store.queries()) == {PRIMARY_TRACK, "grid"}
        assert store.latest("grid", "p50").round_index == 7
        assert store.window("grid", 4, "p50").count == 4
        assert store.summary_quantile("grid", 0.5, "p50").count == 8
        assert store.latest(PRIMARY_TRACK).round_index == 7

    def test_degraded_rounds_excluded_from_runner_history(self):
        # Rounds 2-3 take every sensor down: the driver degrades and the
        # serving layer re-serves cached answers — history must skip them.
        runner = self.build_runner(outages={2: [(1, 2), (2, 2)]})
        served = runner.run(6)
        assert any(s.report.degraded for s in served)
        store = runner.history
        degraded_count = sum(1 for s in served if s.report.degraded)
        absorbed = store.summary_quantile("grid", 0.5, "p50").count
        assert absorbed == len(served) - degraded_count
        assert store.degraded_skipped("grid") == degraded_count
        assert store.degraded_skipped(PRIMARY_TRACK) == degraded_count

    def test_fault_driver_accepts_history_directly(self):
        """A bare driver's round reports feed the store's primary track
        directly; no serving runner is needed in between."""
        positions = [(0.0, 0.0), (8.0, 0.0)]
        graph = build_physical_graph(np.asarray(positions, dtype=float), RANGE)
        tree = build_routing_tree(graph, root=0)
        rng = np.random.default_rng(5)
        rounds = [rng.integers(100, 900, size=2) for _ in range(5)]
        from repro.core.iq import IQ

        store = HistoryStore()
        driver = FaultDriver(
            IQ,
            QuerySpec(r_min=0, r_max=1023),
            tree,
            SequenceWorkload(rounds),
            FaultPlan(),
            graph=graph,
            radio_range=RANGE,
        )
        for report in driver.run(5):
            store.absorb_report(report)
        assert store.latest(PRIMARY_TRACK).round_index == 4
        assert store.summary_quantile(PRIMARY_TRACK, 0.5).count == 5
