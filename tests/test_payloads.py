"""Unit tests for the shared payload types."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    BUCKET_COUNT_BITS,
    BUCKET_ID_BITS,
    COUNTER_BITS,
    VALUE_BITS,
)
from repro.core.payloads import (
    BucketDeltaPayload,
    HistogramPayload,
    ValidationPayload,
    ValueSetPayload,
    merge_sorted,
    prune_with_ties,
    value_set,
)
from repro.errors import ProtocolError


class TestMergeSorted:
    def test_basic(self):
        assert merge_sorted((1, 3, 5), (2, 4)) == (1, 2, 3, 4, 5)

    def test_empty_sides(self):
        assert merge_sorted((), (1, 2)) == (1, 2)
        assert merge_sorted((1, 2), ()) == (1, 2)

    def test_duplicates_preserved(self):
        assert merge_sorted((2, 2), (2,)) == (2, 2, 2)


class TestPruneWithTies:
    def test_no_prune_when_small(self):
        assert prune_with_ties((1, 2, 3), keep=5, keep_largest=False) == (1, 2, 3)

    def test_keep_none_passthrough(self):
        assert prune_with_ties((1, 2, 3), keep=None, keep_largest=True) == (1, 2, 3)

    def test_keep_smallest(self):
        assert prune_with_ties((1, 2, 3, 4, 5), 2, keep_largest=False) == (1, 2)

    def test_keep_largest(self):
        assert prune_with_ties((1, 2, 3, 4, 5), 2, keep_largest=True) == (4, 5)

    def test_smallest_keeps_boundary_ties(self):
        assert prune_with_ties((1, 2, 2, 2, 5), 2, keep_largest=False) == (1, 2, 2, 2)

    def test_largest_keeps_boundary_ties(self):
        assert prune_with_ties((1, 4, 4, 4, 5), 2, keep_largest=True) == (4, 4, 4, 5)

    def test_nonpositive_keep_rejected(self):
        with pytest.raises(ProtocolError):
            prune_with_ties((1, 2), 0, keep_largest=False)


class TestValidationPayload:
    def test_merge_adds_counters(self):
        a = ValidationPayload(into_lt=1, outof_gt=1, hint_min=5, hint_max=5)
        b = ValidationPayload(into_gt=2, hint_min=9, hint_max=9)
        merged = a.merged_with(b)
        assert merged.into_lt == 1
        assert merged.into_gt == 2
        assert merged.outof_gt == 1
        assert merged.hint_min == 5
        assert merged.hint_max == 9

    def test_merge_none_hints(self):
        a = ValidationPayload(into_lt=1)
        b = ValidationPayload(into_gt=1, hint_min=3, hint_max=3)
        merged = a.merged_with(b)
        assert merged.hint_min == 3 and merged.hint_max == 3

    def test_merge_unions_values(self):
        a = ValidationPayload(values=(1, 5))
        b = ValidationPayload(values=(3,))
        assert a.merged_with(b).values == (1, 3, 5)

    def test_size_counters_only(self):
        payload = ValidationPayload(into_lt=1, hint_values=0)
        assert payload.payload_bits() == 4 * COUNTER_BITS

    def test_size_with_two_hints(self):
        payload = ValidationPayload(into_lt=1, hint_min=2, hint_max=2, hint_values=2)
        assert payload.payload_bits() == 4 * COUNTER_BITS + 2 * VALUE_BITS

    def test_size_with_max_diff_hint(self):
        payload = ValidationPayload(into_lt=1, hint_min=2, hint_max=2, hint_values=1)
        assert payload.payload_bits() == 4 * COUNTER_BITS + VALUE_BITS

    def test_size_with_values(self):
        payload = ValidationPayload(values=(1, 2, 3))
        assert payload.payload_bits() == 4 * COUNTER_BITS + 3 * VALUE_BITS
        assert payload.num_values() == 3

    def test_emptiness(self):
        assert ValidationPayload().is_empty()
        assert not ValidationPayload(into_lt=1).is_empty()
        assert not ValidationPayload(values=(1,)).is_empty()
        assert not ValidationPayload(hint_min=1, hint_max=1).is_empty()


class TestValueSetPayload:
    def test_merge_unpruned(self):
        merged = ValueSetPayload(values=(1, 4)).merged_with(
            ValueSetPayload(values=(2,))
        )
        assert merged.values == (1, 2, 4)

    def test_merge_prunes_smallest(self):
        a = ValueSetPayload(values=(1, 9), keep=2)
        b = ValueSetPayload(values=(2, 8), keep=2)
        assert a.merged_with(b).values == (1, 2)

    def test_merge_prunes_largest_with_ties(self):
        a = ValueSetPayload(values=(5, 9), keep=2, keep_largest=True)
        b = ValueSetPayload(values=(9, 9), keep=2, keep_largest=True)
        assert a.merged_with(b).values == (9, 9, 9)

    def test_mixed_pruning_rejected(self):
        a = ValueSetPayload(values=(1,), keep=2)
        b = ValueSetPayload(values=(2,), keep=3)
        with pytest.raises(ProtocolError):
            a.merged_with(b)

    def test_size_and_values(self):
        payload = ValueSetPayload(values=(1, 2, 3))
        assert payload.payload_bits() == 3 * VALUE_BITS
        assert payload.num_values() == 3
        assert ValueSetPayload().is_empty()


#: Ascending value tuples with plenty of ties.
ascending = st.lists(st.integers(-8, 8), max_size=12).map(lambda xs: tuple(sorted(xs)))


@st.composite
def value_set_pairs(draw):
    a, b = draw(ascending), draw(ascending)
    keep = draw(st.none() | st.integers(1, max(1, len(a) + len(b))))
    return a, b, keep, draw(st.booleans())


class TestValueSetPayloadFormula:
    """The slotted value set and :func:`value_set` against the formulas
    the merge had before they were introduced."""

    @settings(max_examples=300, deadline=None)
    @given(value_set_pairs())
    def test_merge_is_sort_then_prune(self, pair):
        a, b, keep, keep_largest = pair
        merged = ValueSetPayload(a, keep, keep_largest).merged_with(
            value_set(b, keep, keep_largest)
        )
        expected = ValueSetPayload(
            prune_with_ties(tuple(sorted(a + b)), keep, keep_largest),
            keep,
            keep_largest,
        )
        assert merged == expected
        assert hash(merged) == hash(expected)
        assert repr(merged) == repr(expected)

    @settings(max_examples=100, deadline=None)
    @given(ascending, st.none() | st.integers(1, 12), st.booleans())
    def test_hot_constructor_equals_dataclass(self, values, keep, keep_largest):
        hot = value_set(values, keep, keep_largest)
        built = ValueSetPayload(values=values, keep=keep, keep_largest=keep_largest)
        assert type(hot) is ValueSetPayload
        assert hot == built
        assert hash(hot) == hash(built)
        assert repr(hot) == repr(built)

    @pytest.mark.parametrize("field", ["values", "keep", "keep_largest"])
    def test_hot_instances_stay_frozen(self, field):
        payload = value_set((1, 2), 2, False)
        with pytest.raises(FrozenInstanceError):
            setattr(payload, field, None)
        assert payload == ValueSetPayload((1, 2), 2, False)


class TestHistogramPayload:
    def test_merge_adds_counts(self):
        a = HistogramPayload(counts=(1, 0, 2))
        b = HistogramPayload(counts=(0, 4, 1))
        assert a.merged_with(b).counts == (1, 4, 3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            HistogramPayload(counts=(1,)).merged_with(HistogramPayload(counts=(1, 2)))

    def test_dense_size(self):
        payload = HistogramPayload(counts=(1, 1, 1, 1), compressed=False)
        assert payload.payload_bits() == 4 * BUCKET_COUNT_BITS

    def test_compressed_smaller_when_sparse(self):
        payload = HistogramPayload(counts=(0,) * 63 + (1,))
        assert payload.payload_bits() == BUCKET_ID_BITS + BUCKET_COUNT_BITS

    def test_compression_never_worse_than_dense(self):
        dense_counts = tuple(range(1, 9))
        payload = HistogramPayload(counts=dense_counts)
        assert payload.payload_bits() <= 8 * BUCKET_COUNT_BITS

    def test_emptiness(self):
        assert HistogramPayload(counts=(0, 0)).is_empty()
        assert not HistogramPayload(counts=(0, 1)).is_empty()


class TestBucketDeltaPayload:
    def test_merge_sums_and_drops_zeros(self):
        a = BucketDeltaPayload(deltas=(((0, 3), -1), ((0, 4), 1)))
        b = BucketDeltaPayload(deltas=(((0, 4), -1), ((0, 5), 1)))
        merged = a.merged_with(b).as_dict()
        assert merged == {(0, 3): -1, (0, 5): 1}

    def test_size_per_entry(self):
        payload = BucketDeltaPayload(deltas=(((0, 1), 1), ((1, 2), -1)))
        assert payload.payload_bits() == 2 * (BUCKET_ID_BITS + BUCKET_COUNT_BITS)

    def test_emptiness(self):
        assert BucketDeltaPayload().is_empty()

