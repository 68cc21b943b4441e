"""Decoding whole φ-grids, value bounds and range fractions from one sketch.

A q-digest summarizes *every* quantile of its input (Shrivastava et al.,
"Medians and Beyond"), so one merged digest answers a full grid of φ
targets, sound value intervals for each, and interval-membership
fractions — the primitive the multi-query serving layer amortizes one
convergecast over.

All functions are pure and operate on any
:class:`~repro.sketch.payload.QuantileSketch`; the value-interval helpers
additionally need the universe bounds (``r_min``/``r_max`` attributes),
which the q-digest carries.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.oracle import quantile_rank
from repro.sketch.payload import QuantileSketch


def phi_grid(sketch: QuantileSketch, phis: tuple[float, ...]) -> tuple[int, ...]:
    """The sketch's answer for every grid point, in the given φ order.

    Answers are monotone non-decreasing for ascending φ: the rank is
    non-decreasing in φ, and the sketch answers every rank from one prefix
    list, its cumulative counts over values in ascending order, so a
    higher rank never lands on a smaller value.
    """
    if sketch.n == 0:
        raise ConfigurationError("cannot decode a phi grid from an empty sketch")
    return tuple(
        sketch.quantile(quantile_rank(sketch.n, phi)) for phi in phis
    )


def value_bounds(sketch, k: int) -> tuple[int, int]:
    """A sound value interval containing the true k-th smallest value.

    Uses only the sketch's sound rank bounds: the true k-th value ``x*``
    satisfies ``x* <= v`` iff ``#{< v+1} >= k`` and ``x* >= v`` iff
    ``#{< v} < k``, both monotone in ``v``, so each endpoint is a binary
    search over the universe.  The interval's rank-width is at most the
    sketch's ambiguity (``eps * n`` for a q-digest), and it contains the
    exact quantile of the summarized multiset for every valid ``k``.
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


def range_count_bounds(
    sketch: QuantileSketch, low: int, high: int
) -> tuple[int, int]:
    """Sound bounds on ``#{values in [low, high]}`` from rank bounds.

    The count is ``#{< high+1} - #{< low}``; combining each difference's
    extreme ends keeps the bounds sound under the sketch's positional
    ambiguity.
    """
    if low > high:
        raise ConfigurationError(f"empty interval [{low}, {high}]")
    upper_lo, upper_hi = sketch.rank_bounds(high + 1)
    lower_lo, lower_hi = sketch.rank_bounds(low)
    return max(0, upper_lo - lower_hi), min(sketch.n, upper_hi - lower_lo)


def range_fraction(
    sketch: QuantileSketch, low: int, high: int
) -> tuple[float, float, float]:
    """``(estimate, lo, hi)`` for the fraction of values inside ``[low, high]``.

    The estimate is the bounds' midpoint; ``lo``/``hi`` are the sound
    fraction bounds.  Raises on an empty sketch (the caller decides how to
    flag an answerless scope).
    """
    if sketch.n == 0:
        raise ConfigurationError("cannot answer a range query on an empty sketch")
    count_lo, count_hi = range_count_bounds(sketch, low, high)
    lo = count_lo / sketch.n
    hi = count_hi / sketch.n
    return (lo + hi) / 2.0, lo, hi
