"""The rank-overlap measures as they were before the position-array code:
one pair of sets per interval, per top-n and per bottom-n, and the
fractional ranks as they were before the grouped-array code: one loop
over runs of tied values. Kept verbatim as the oracles that
tests/test_listcompare.py checks `_positions`, `_interval_overlaps`,
`_top_bottom_overlaps`, `compare` and `_fractional_ranks` against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def interval_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], width: int) -> float:
    """Fraction of words that fall in the same width-sized interval of
    both orderings (the last interval may be shorter)."""
    if width < 1:
        raise ValueError("interval width must be at least 1")
    if set(ranks_a) != set(ranks_b) or len(ranks_a) != len(ranks_b):
        raise ValueError("orderings must contain exactly the same words")
    total = len(ranks_a)
    if total == 0:
        raise ValueError("empty orderings")
    matched = 0
    for start in range(0, total, width):
        seg_a = set(ranks_a[start:start + width])
        seg_b = set(ranks_b[start:start + width])
        matched += len(seg_a & seg_b)
    return matched / total


def top_n_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], n: int) -> int:
    _check_n(ranks_a, ranks_b, n)
    return len(set(ranks_a[:n]) & set(ranks_b[:n]))


def bottom_n_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], n: int) -> int:
    _check_n(ranks_a, ranks_b, n)
    return len(set(ranks_a[len(ranks_a) - n:]) & set(ranks_b[len(ranks_b) - n:]))


def _check_n(ranks_a, ranks_b, n):
    if len(ranks_a) != len(ranks_b):
        raise ValueError("orderings must have equal length")
    if not 0 <= n <= len(ranks_a):
        raise ValueError(f"n must be between 0 and {len(ranks_a)}")


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks
