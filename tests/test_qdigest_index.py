"""The q-digest query index against the entry scans it replaced.

``QDigest.rank_bounds`` and ``QDigest.quantile`` answer by bisection on a
prefix index built once per digest.  The scans they replaced live in
``tests/reference_qdigest.py``; here hypothesis pins the two together
over random universes (size 1, non-powers of two, negative ``r_min``),
both compression regimes and random merge trees, for every boundary and
every rank.  It also pins ``QDigest.value_bounds``, which reads both ends
of the value interval off the index, to the universe binary search through
``rank_bounds`` it replaced (on the index and on the scans), and the index
a leaf-only digest builds without a sort to the sorted build.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sketch import QDigest
from tests import reference_qdigest as reference
from tests.reference_qdigest import ScanDigest

MAX_VALUES = 60


@st.composite
def merged_digests(draw, regime: str) -> QDigest:
    """A digest built from random chunks folded in a random merge tree.

    ``regime`` picks eps so that the result is ``"lossless"`` (``n <
    kappa``: compression threshold 0, an exact sparse histogram) or
    ``"compressed"`` (``n >= kappa``: internal nodes carry counts).
    """
    r_min = draw(st.integers(-70, 70))
    size = draw(st.integers(1, 140))
    r_max = r_min + size - 1
    levels = max(1, (size - 1).bit_length())
    if regime == "lossless":
        n = draw(st.integers(1, MAX_VALUES))
        # kappa = ceil(levels / eps) > n  <=>  eps < levels / n
        eps = draw(st.floats(0.001, min(0.99, levels / (n + 1))))
    else:
        n = draw(st.integers(2 * levels + 2, MAX_VALUES + 2 * levels))
        # kappa <= n  <=>  eps >= levels / n
        eps = draw(st.floats(min(0.99, 1.001 * levels / n), 0.99))
    values = draw(st.lists(st.integers(r_min, r_max), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8)) if n > 1 else ())
    bounds = [0, *cuts, n]
    pool = [
        QDigest.from_values(values[a:b], eps, r_min, r_max)
        for a, b in zip(bounds, bounds[1:])
    ]
    while len(pool) > 1:
        i = draw(st.integers(0, len(pool) - 2))
        left = pool.pop(i)
        right = pool.pop(i)
        pool.insert(draw(st.integers(0, len(pool))), left.merged(right))
    return pool[0]


@pytest.mark.parametrize("regime", ["lossless", "compressed"])
@settings(deadline=None)
@given(data=st.data())
def test_index_queries_equal_the_scan(regime, data):
    digest = data.draw(merged_digests(regime))
    assert (digest.n < digest.kappa) == (regime == "lossless")
    for x in range(digest.r_min - 1, digest.r_max + 2):
        assert digest.rank_bounds(x) == reference.rank_bounds(digest, x)
    scan = ScanDigest(digest)
    for k in range(1, digest.n + 1):
        assert digest.quantile(k) == reference.quantile(digest, k)
        bounds = digest.value_bounds(k)
        assert bounds == reference.value_bounds(scan, k)
        assert bounds == reference.value_bounds(digest, k)
        assert bounds[1] == digest.quantile(k)


@pytest.mark.parametrize("regime", ["lossless", "compressed"])
@settings(deadline=None)
@given(data=st.data())
def test_leaf_only_index_equals_the_sorted_build(regime, data):
    digest = data.draw(merged_digests(regime))
    leaves_only = all(node >> digest.levels for node, _ in digest.entries)
    # Every lossless digest is a sparse histogram of leaves.
    assert leaves_only or regime == "compressed"
    assert digest._index == reference.sorted_index(digest)


@pytest.mark.parametrize("k", [0, 4])
def test_value_bounds_rejects_a_rank_out_of_range(k):
    digest = QDigest.from_values((3, 5, 5), 0.1, 0, 15)
    with pytest.raises(ConfigurationError, match="out of range"):
        digest.value_bounds(k)


@pytest.mark.parametrize("r_min, r_max", [(0, 0), (-5, 7), (3, 1026)])
def test_empty_digest_rank_bounds_equal_the_scan(r_min, r_max):
    digest = QDigest.empty(0.1, r_min, r_max)
    for x in range(r_min - 1, r_max + 2):
        assert digest.rank_bounds(x) == reference.rank_bounds(digest, x) == (0, 0)


def test_index_is_built_once_on_the_first_query_and_never_by_merged():
    left = QDigest.from_values(range(0, 600, 3), 0.1, 0, 1023)
    right = QDigest.from_values(range(1, 900, 7), 0.1, 0, 1023)
    merged = left.merged(right)
    assert all("_index" not in vars(d) for d in (left, right, merged))
    merged.rank_bounds(300)
    index = vars(merged)["_index"]
    merged.quantile(merged.n // 2)
    merged.rank_bounds(700)
    assert vars(merged)["_index"] is index
    # The cached index is not part of the digest's value.
    assert merged == left.merged(right)
