"""Old code paths of `lexicorp.listcompare`, kept verbatim as test oracles.

- The rank-overlap measures as they were before the position-array code:
  one pair of sets per interval, per top-n and per bottom-n.
- The fractional ranks as they were before the grouped-array code: one
  loop over runs of tied values.
- `compare` as it was before the one-rank-array code, with every helper
  it calls: `coverage`, `fragment_coverage`, `last_position`,
  `_positions`, `_interval_overlaps`, `_top_bottom_overlaps`,
  `same_rank_words`, `_fractional_ranks` and the three correlations.
  It looks the stems up in `d.ranks()` once per table and sorts the
  common words a second time for ordering B. One line differs: the
  deleted `Dictionary.doc_counts()` is spelt out as the dict it built.

tests/test_listcompare.py checks `_interval_overlaps`,
`_top_bottom_overlaps`, `_fractional_ranks` and `compare` against them.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

import numpy as np

from lexicorp.dictionary import Dictionary
from lexicorp.listcompare import ComparisonReport, StemmedEntry

logger = logging.getLogger(__name__)


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


def coverage(d: Dictionary, word_list: Sequence[StemmedEntry]) -> tuple[int, float, list[str]]:
    """(count, fraction, missing stems) of the list found in the dictionary."""
    if len(word_list) == 0:
        raise ValueError("empty word list")
    vocab = d.ranks()
    present = [e.stem for e in word_list if e.stem in vocab]
    missing = [e.stem for e in word_list if e.stem not in vocab]
    return len(present), len(present) / len(word_list), missing


def fragment_coverage(
    d: Dictionary,
    word_list: Sequence[StemmedEntry],
    ks: Sequence[int],
) -> list[tuple[int, int, float, list[str]]]:
    """Coverage of the list within the top-k dictionary fragments.

    Returns rows (k, found, fraction-of-list, words newly found since
    the previous fragment); k values beyond the dictionary are clamped.
    """
    ranks = d.ranks()
    n_list = len(word_list)
    if n_list == 0:
        raise ValueError("empty word list")
    stems = [e.stem for e in word_list]
    rows = []
    previous: set[str] = set()
    for k in sorted(set(ks)):
        k_eff = min(k, len(d))
        if k_eff < k:
            logger.warning("fragment size %d clamped to dictionary size %d", k, len(d))
        found = {s for s in stems if ranks.get(s, 1 << 62) <= k_eff}
        added = sorted(found - previous, key=lambda s: ranks[s])
        rows.append((k_eff, len(found), len(found) / n_list, added))
        previous = found
    return rows


def last_position(
    d: Dictionary,
    common: Sequence[StemmedEntry],
    fragment_sizes: Sequence[int],
) -> list[tuple[int, int, float]]:
    """For the top-m entries of `common`, the deepest dictionary rank they reach.

    Rows are (m, max rank, fraction of the dictionary). Every stem must
    be in the dictionary and every m between 1 and len(common).
    """
    ranks = d.ranks()
    rows = []
    for m in sorted(set(fragment_sizes)):
        deepest = max(ranks[e.stem] for e in common[:m])
        rows.append((m, deepest, deepest / len(d)))
    return rows


def _positions(ranks_a: Sequence[str], ranks_b: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """0-based positions (pa, pb) of each word in two orderings of the same words."""
    pos_b = dict(zip(ranks_b, range(len(ranks_b))))
    if len(pos_b) != len(ranks_b) or len(set(ranks_a)) != len(ranks_a):
        raise ValueError("orderings must not repeat a word")
    pb = [pos_b[w] for w in ranks_a]
    return np.arange(len(ranks_a), dtype=np.intp), np.array(pb, dtype=np.intp)


def _interval_overlaps(pa: np.ndarray, pb: np.ndarray, widths: Iterable[int]) -> dict[int, float]:
    """width -> fraction of the words whose interval index agrees in both orderings."""
    return {w: int(np.count_nonzero(pa // w == pb // w)) / len(pa) for w in widths}


def _top_bottom_overlaps(pa: np.ndarray, pb: np.ndarray, total: int,
                         ns: Sequence[int]) -> tuple[dict[int, int], dict[int, int]]:
    """n -> words in the first n of both orderings, and n -> words in the
    last n of both, for orderings of `total` words."""
    # A word is in both top-n sets when max(pa, pb) < n and in both bottom-n
    # sets when min(pa, pb) >= total - n; a cumulative count answers every n.
    top = np.concatenate(([0], np.cumsum(np.bincount(np.maximum(pa, pb), minlength=total))))
    bottom = np.concatenate(([0], np.cumsum(
        np.bincount(total - 1 - np.minimum(pa, pb), minlength=total))))
    return {n: int(top[n]) for n in ns}, {n: int(bottom[n]) for n in ns}


def same_rank_words(ranks_a: Sequence[str], ranks_b: Sequence[str]) -> list[tuple[str, int]]:
    """Words occupying the same 1-based position in both orderings."""
    return [(a, i) for i, (a, b) in enumerate(zip(ranks_a, ranks_b), 1) if a == b]


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions.
    A NaN ties with nothing, as NaN != NaN (np.unique would join them)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    counts = np.diff(np.append(starts, len(values)))
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat((2 * starts + counts - 1) / 2 + 1, counts)
    return ranks


def _pearson_arrays(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0 or syy == 0:
        raise ValueError("zero variance")
    return float(np.dot(xc, yc) / np.sqrt(sxx * syy))


def pearson(pairs: Iterable[tuple[float, float]]) -> float:
    """Product-moment correlation of the raw value pairs."""
    x, y = _split_pairs(pairs)
    return _pearson_arrays(x, y)


def pearson_log(pairs, labels: Sequence[str] | None = None) -> float:
    """Pearson correlation of the natural-log-transformed values."""
    x, y = _split_pairs(pairs)
    for i in range(len(x)):
        if x[i] <= 0 or y[i] <= 0:
            which = labels[i] if labels is not None else f"pair {i + 1}"
            raise ValueError(f"non-positive value under log for {which}")
    return _pearson_arrays(np.log(x), np.log(y))


def spearman(pairs: Iterable[tuple[float, float]]) -> float:
    """Rank correlation: Pearson of the fractional-rank vectors."""
    x, y = _split_pairs(pairs)
    rx, ry = _fractional_ranks(x), _fractional_ranks(y)
    try:
        return _pearson_arrays(rx, ry)
    except ValueError:
        raise ValueError("zero rank variance") from None


def _split_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least 2 pairs")
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    return x, y


def default_widths(n_total: int) -> list[int]:
    """The interval-width ladder 5, 10, ..., capped by the list size."""
    widths = list(range(5, n_total, 5))
    widths.append(n_total)
    return widths


def compare(
    d: Dictionary,
    word_list: Sequence[StemmedEntry],
    widths: Sequence[int] | None = None,
    tops: Sequence[int] | None = None,
    fragment_ks: Sequence[int] | None = None,
) -> ComparisonReport:
    """Run the full comparison suite and collect a ComparisonReport.

    Rank-based analyses restrict both lists to the common words: the
    dictionary side keeps its canonical order, the word-list side is
    ordered by averaged frequency index. When the list carries no
    frequency index those analyses are skipped.
    """
    report = ComparisonReport(
        n_headwords=sum(len(e.source_headwords) for e in word_list),
        n_stems=len(word_list),
        n_dict_words=len(d),
    )
    count, pct, missing = coverage(d, word_list)
    report.coverage_count, report.coverage_pct, report.missing_words = count, pct, missing

    if fragment_ks is None:
        fragment_ks = [k for k in (1000, 5000, 10000, 15000, 20000, 25000, 30000,
                                   35000, 40000, 45000, 50000, 55000, 60000,
                                   75000, 80000) if k <= len(d)] + [len(d)]
    report.fragment_table = fragment_coverage(d, word_list, fragment_ks)

    have_sfi = all(e.sfi_avg is not None for e in word_list)
    if not have_sfi:
        logger.warning("word list has no frequency index; rank analyses skipped")
        return report

    ranks = d.ranks()
    common = [e for e in word_list if e.stem in ranks]
    if not common:
        return report
    report.common_words = [e.stem for e in common]
    n_common = len(common)

    # ordering A: dictionary canonical order; ordering B: list order
    order_a = sorted((e.stem for e in common), key=lambda s: ranks[s])
    order_b = [e.stem for e in sorted(common, key=lambda e: (-e.sfi_avg, e.stem))]

    report.last_position_table = last_position(
        d, common, list(range(100, n_common, 100)) + [n_common])

    if widths is None:
        widths = default_widths(n_common)
    if tops is None:
        tops = default_widths(n_common)
    pa, pb = _positions(order_a, order_b)
    report.interval_overlaps = _interval_overlaps(pa, pb, [w for w in widths if 1 <= w])
    report.top_overlap, report.bottom_overlap = _top_bottom_overlaps(
        pa, pb, n_common, [n for n in tops if 0 <= n <= n_common])

    doc_counts = dict(zip(d.words(), d.doc.tolist()))  # was d.doc_counts(), since deleted
    pairs = [(doc_counts[e.stem], e.sfi_avg) for e in common]
    labels = [e.stem for e in common]
    report.src = spearman(pairs)
    report.pcc = pearson(pairs)
    report.pcc_log = pearson_log(pairs, labels)
    report.same_rank_words = same_rank_words(order_a, order_b)
    return report
