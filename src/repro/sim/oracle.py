"""Centralized ground truth for quantile queries.

Every distributed algorithm in this package is *exact*: on every round its
answer must equal the value computed here from the raw measurement vector.
The integration tests assert this equality round by round.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def quantile_rank(num_values: int, phi: float) -> int:
    """The paper's rank convention: ``k = max(1, floor(phi * |N|))``.

    Ranks are 1-indexed; the φ-quantile is the k-th smallest value
    (Definition 2.1).  ``phi = 0.5`` yields the median ``k = floor(|N|/2)``.
    """
    if num_values <= 0:
        raise ConfigurationError(f"num_values must be positive, got {num_values}")
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
    return max(1, int(np.floor(phi * num_values)))


def exact_quantile(values: np.ndarray, k: int) -> int:
    """The k-th smallest value (1-indexed) of an integer vector."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("values must be a non-empty 1-D array")
    if not 1 <= k <= values.size:
        raise ConfigurationError(
            f"rank k={k} out of range for {values.size} values"
        )
    return int(np.partition(values, k - 1)[k - 1])


def rank_of_value(values: np.ndarray, value: int) -> tuple[int, int, int]:
    """Counts ``(l, e, g)`` of values ``< value``, ``== value``, ``> value``.

    These are the root's POS state variables; tests use this to validate the
    distributed bookkeeping.
    """
    values = np.asarray(values)
    less = int((values < value).sum())
    equal = int((values == value).sum())
    return less, equal, values.size - less - equal


def rank_error(values: np.ndarray, value: int, k: int) -> int:
    """How far ``value`` is from being the k-th smallest, in ranks.

    ``value`` occupies the rank positions ``[l + 1, l + e]`` of the sorted
    vector (an absent value, ``e == 0``, sits between positions ``l`` and
    ``l + 1``).  The error is the distance from ``k`` to that interval —
    ``0`` iff :func:`is_valid_quantile` holds.  This is the accuracy metric
    of the approximate (sketch-based) algorithms: a q-digest answer is
    guaranteed ``rank_error <= eps * n``.
    """
    less, equal, _ = rank_of_value(values, value)
    return max(0, less + 1 - k, k - less - equal)


def insertion_rank_error(values: np.ndarray, answer: int, k: int) -> int:
    """Distance between k and the closest true rank the answer occupies.

    Like :func:`rank_error`, except that an answer absent from ``values``
    (``e == 0``) counts as occupying the rank ``l + 1`` it *would* take if
    inserted.  The fault and sampling studies report this metric.
    """
    less, equal, _ = rank_of_value(values, answer)
    return max(0, less + 1 - k, k - less - max(equal, 1))


def is_valid_quantile(values: np.ndarray, value: int, k: int) -> bool:
    """True iff ``value`` is the k-th smallest of ``values``.

    Uses the counting characterization the algorithms rely on:
    ``l < k <= l + e``.
    """
    less, equal, _ = rank_of_value(values, value)
    return less < k <= less + equal
