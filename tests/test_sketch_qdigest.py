"""Property-based tests for the q-digest sketch (repro/sketch/qdigest.py).

The q-digest's guarantee is *deterministic*: rank error at most
``eps * n`` for any input multiset and — crucially for a convergecast —
for **any** merge tree.  Hypothesis drives both the multisets and the
merge shapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.sim.oracle import rank_error
from repro.sketch import QDigest

from tests.helpers import internal_counts_bounded

R_MIN, R_MAX = 0, 127

multisets = st.lists(st.integers(R_MIN, R_MAX), min_size=1, max_size=200)
eps_values = st.sampled_from([0.02, 0.05, 0.1, 0.3])


def measured_rank_error(values: list[int], digest: QDigest, k: int) -> int:
    """The true rank distance of ``digest.quantile(k)`` from rank ``k``."""
    return rank_error(np.asarray(values), digest.quantile(k), k)


def merge_in_random_shape(
    values: list[int], eps: float, data: st.DataObject
) -> QDigest:
    """Build per-value digests, then fold them in a data-driven tree shape."""
    pool = [
        QDigest.from_values((v,), eps, R_MIN, R_MAX) for v in values
    ]
    while len(pool) > 1:
        i = data.draw(st.integers(0, len(pool) - 2))
        left = pool.pop(i)
        right = pool.pop(i)
        pool.insert(data.draw(st.integers(0, len(pool))), left.merged(right))
    return pool[0]


class TestQDigestProperties:
    @given(multisets, eps_values, st.floats(0.01, 0.99))
    def test_rank_error_within_eps_n(self, values, eps, phi):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        n = len(values)
        k = max(1, int(np.floor(phi * n)))
        assert measured_rank_error(values, digest, k) <= eps * n

    @settings(deadline=None)
    @given(multisets, eps_values, st.data())
    def test_merge_any_shape_keeps_guarantee(self, values, eps, data):
        digest = merge_in_random_shape(values, eps, data)
        n = len(values)
        assert digest.n == n
        assert internal_counts_bounded(digest)
        for k in {1, max(1, n // 2), n}:
            assert measured_rank_error(values, digest, k) <= eps * n

    @given(multisets, eps_values, st.integers(R_MIN, R_MAX + 1))
    def test_rank_bounds_sound_and_tight(self, values, eps, x):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        lo, hi = digest.rank_bounds(x)
        true_rank = sum(1 for v in values if v < x)
        assert lo <= true_rank <= hi
        assert hi - lo <= eps * len(values)

    @given(st.lists(st.integers(R_MIN, R_MAX), min_size=1, max_size=60),
           st.data())
    def test_lossless_regime_merges_exactly(self, values, data):
        """With ``n < kappa`` the threshold is 0: the digest is an exact
        sparse histogram and merging is exactly associative, so any two
        merge shapes produce identical digests."""
        eps = 0.05  # kappa = ceil(7 / 0.05) = 140 > max_size
        one = merge_in_random_shape(values, eps, data)
        other = QDigest.from_values(values, eps, R_MIN, R_MAX)
        assert one == other
        assert one.n // one.kappa == 0

    @given(multisets, eps_values)
    def test_payload_bits_honest(self, values, eps):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        assert digest.payload_bits() > 0
        assert digest.num_entries() <= len(values)
        empty = QDigest.empty(eps, R_MIN, R_MAX)
        assert empty.payload_bits() == 0
        # Merging with the empty digest changes nothing semantically.
        assert empty.merged(digest).n == digest.n


class TestQDigestValidation:
    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigurationError):
            QDigest.empty(0.0, R_MIN, R_MAX)
        with pytest.raises(ConfigurationError):
            QDigest.empty(1.0, R_MIN, R_MAX)

    def test_rejects_empty_universe(self):
        with pytest.raises(ConfigurationError):
            QDigest.empty(0.1, 5, 4)

    def test_rejects_out_of_universe_values(self):
        with pytest.raises(ConfigurationError):
            QDigest.from_values([R_MAX + 1], 0.1, R_MIN, R_MAX)

    def test_rejects_mismatched_merge(self):
        a = QDigest.from_values([1], 0.1, R_MIN, R_MAX)
        b = QDigest.from_values([1], 0.2, R_MIN, R_MAX)
        with pytest.raises(ProtocolError):
            a.merged(b)

    def test_quantile_rank_out_of_range(self):
        digest = QDigest.from_values([1, 2, 3], 0.1, R_MIN, R_MAX)
        with pytest.raises(ConfigurationError):
            digest.quantile(0)
        with pytest.raises(ConfigurationError):
            digest.quantile(4)
