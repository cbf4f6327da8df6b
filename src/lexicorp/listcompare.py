"""Comparison of a dictionary against an external academic headword list.

Headwords are stemmed and merged (frequency indices averaged across
merged forms), then the two lists are compared by coverage, by fragments
of the dictionary, by interval overlap of the two orderings, by
top/bottom-n overlap and by rank correlation. Rank analyses consider
common words only.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .config import InputError
from .dictionary import Dictionary
from .stemmer import stem

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WordListEntry:
    headword: str
    sfi: float | None = None
    u: float | None = None
    d: float | None = None


@dataclass(frozen=True)
class ExternalWordList:
    entries: tuple[WordListEntry, ...]

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class StemmedEntry:
    stem: str
    sfi_avg: float | None
    source_headwords: tuple[str, ...]


@dataclass(frozen=True)
class StemmedWordList:
    entries: tuple[StemmedEntry, ...]

    def __len__(self):
        return len(self.entries)

    def stems(self) -> list[str]:
        return [e.stem for e in self.entries]


@dataclass
class ComparisonReport:
    n_headwords: int = 0
    n_stems: int = 0
    n_dict_words: int = 0
    common_words: list[str] = field(default_factory=list)
    coverage_count: int = 0
    coverage_pct: float = 0.0
    missing_words: list[str] = field(default_factory=list)
    fragment_table: list[tuple] = field(default_factory=list)
    last_position_table: list[tuple] = field(default_factory=list)
    interval_overlaps: dict[int, float] = field(default_factory=dict)
    top_overlap: dict[int, int] = field(default_factory=dict)
    bottom_overlap: dict[int, int] = field(default_factory=dict)
    src: float | None = None
    pcc: float | None = None
    pcc_log: float | None = None
    same_rank_words: list[tuple[str, int]] = field(default_factory=list)


def read_word_list(stream: IO[str]) -> ExternalWordList:
    """Read a "headword,sfi[,u,d]" CSV; a header row is detected and skipped.

    Files without a numeric second column yield entries with sfi=None;
    downstream rank analyses are then skipped with a warning. A nan or
    infinite sfi, u or d value raises `InputError`.
    """
    entries = []
    for row_no, row in enumerate(csv.reader(stream), 1):
        if not row or not row[0].strip():
            continue
        head = row[0].strip().lower()
        rest = [c.strip() for c in row[1:]]
        if row_no == 1:
            looks_numeric = any(_is_number(c) for c in rest if c)
            if (rest and not looks_numeric) or head in ("headword", "word", "lemma"):
                continue  # header row
        values = []
        for i, column in enumerate(("sfi", "u", "d")):
            value = _parse_float(rest[i]) if len(rest) > i else None
            if value is not None and not math.isfinite(value):
                raise InputError(f"row {row_no}: {column} {rest[i]!r} is not a finite number")
            values.append(value)
        sfi, u, d = values
        if sfi is not None and not 0 <= sfi <= 100:
            logger.warning("row %d: frequency index %.3f outside [0, 100]", row_no, sfi)
        if d is not None and not 0 <= d <= 1:
            logger.warning("row %d: dispersion %.3f outside [0, 1]", row_no, d)
        entries.append(WordListEntry(head, sfi, u, d))
    return ExternalWordList(tuple(entries))


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_float(s: str) -> float | None:
    s = s.strip()
    if not s:
        return None
    try:
        return float(s)
    except ValueError:
        return None


def stem_merge(word_list: ExternalWordList) -> StemmedWordList:
    """Stem every headword and merge those sharing a stem.

    The merged entry averages the available frequency indices of its
    source headwords. Entries are ordered by that average (descending,
    ties by stem) so the list order mirrors the published ranking.
    """
    groups: dict[str, list[WordListEntry]] = {}
    order: list[str] = []
    for e in word_list.entries:
        s = stem(e.headword.lower())
        if s not in groups:
            groups[s] = []
            order.append(s)
        groups[s].append(e)
    merged = []
    for s in order:
        members = groups[s]
        sfis = [m.sfi for m in members if m.sfi is not None]
        sfi_avg = sum(sfis) / len(sfis) if sfis else None
        merged.append(StemmedEntry(s, sfi_avg, tuple(m.headword for m in members)))
    if all(e.sfi_avg is not None for e in merged):
        merged.sort(key=lambda e: (-e.sfi_avg, e.stem))
    return StemmedWordList(tuple(merged))


def coverage(d: Dictionary, word_list: StemmedWordList) -> tuple[int, float, list[str]]:
    """(count, fraction, missing stems) of the list found in the dictionary."""
    if len(word_list) == 0:
        raise ValueError("empty word list")
    vocab = d.ranks()
    present = [e.stem for e in word_list.entries if e.stem in vocab]
    missing = [e.stem for e in word_list.entries if e.stem not in vocab]
    return len(present), len(present) / len(word_list), missing


def fragment_coverage(
    d: Dictionary,
    word_list: StemmedWordList,
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
    stems = word_list.stems()
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
    word_list: StemmedWordList,
    fragment_sizes: Sequence[int],
) -> list[tuple[int, int, float]]:
    """For the top-m list entries, the deepest dictionary rank they reach.

    Rows are (m, max rank, fraction of the dictionary). Stems absent
    from the dictionary are noted and skipped.
    """
    ranks = d.ranks()
    stems = word_list.stems()
    rows = []
    for m in sorted(set(fragment_sizes)):
        m_eff = min(m, len(stems))
        in_dict = [ranks[s] for s in stems[:m_eff] if s in ranks]
        skipped = m_eff - len(in_dict)
        if skipped:
            logger.warning("top-%d: %d stems not in dictionary ignored", m, skipped)
        if not in_dict:
            continue
        deepest = max(in_dict)
        rows.append((m_eff, deepest, deepest / len(d)))
    return rows


def interval_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], width: int) -> float:
    """Fraction of words that fall in the same width-sized interval of
    both orderings (the last interval may be shorter)."""
    if width < 1:
        raise ValueError("interval width must be at least 1")
    if set(ranks_a) != set(ranks_b) or len(ranks_a) != len(ranks_b):
        raise ValueError("orderings must contain exactly the same words")
    if len(ranks_a) == 0:
        raise ValueError("empty orderings")
    return _interval_overlaps(*_positions(ranks_a, ranks_b), [width])[width]


def top_n_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], n: int) -> int:
    _check_n(ranks_a, ranks_b, n)
    return _top_bottom_overlaps(*_positions(ranks_a, ranks_b), len(ranks_a), [n])[0][n]


def bottom_n_overlap(ranks_a: Sequence[str], ranks_b: Sequence[str], n: int) -> int:
    _check_n(ranks_a, ranks_b, n)
    return _top_bottom_overlaps(*_positions(ranks_a, ranks_b), len(ranks_a), [n])[1][n]


def _check_n(ranks_a, ranks_b, n):
    if len(ranks_a) != len(ranks_b):
        raise ValueError("orderings must have equal length")
    if not 0 <= n <= len(ranks_a):
        raise ValueError(f"n must be between 0 and {len(ranks_a)}")


def _positions(ranks_a: Sequence[str], ranks_b: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """0-based positions (pa, pb) in each ordering of the words found in both."""
    pos_b = dict(zip(ranks_b, range(len(ranks_b))))
    if len(pos_b) != len(ranks_b) or len(set(ranks_a)) != len(ranks_a):
        raise ValueError("orderings must not repeat a word")
    pa = [i for i, w in enumerate(ranks_a) if w in pos_b]
    pb = [pos_b[ranks_a[i]] for i in pa]
    return np.array(pa, dtype=np.intp), np.array(pb, dtype=np.intp)


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
    word_list: StemmedWordList,
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
        n_headwords=sum(len(e.source_headwords) for e in word_list.entries),
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

    have_sfi = all(e.sfi_avg is not None for e in word_list.entries)
    if not have_sfi:
        logger.warning("word list has no frequency index; rank analyses skipped")
        return report

    ranks = d.ranks()
    common = [e for e in word_list.entries if e.stem in ranks]
    if not common:
        return report
    report.common_words = [e.stem for e in common]
    n_common = len(common)

    # ordering A: dictionary canonical order; ordering B: list order
    order_a = sorted((e.stem for e in common), key=lambda s: ranks[s])
    order_b = [e.stem for e in sorted(common, key=lambda e: (-e.sfi_avg, e.stem))]

    report.last_position_table = last_position(
        d, StemmedWordList(tuple(common)), list(range(100, n_common, 100)) + [n_common])

    if widths is None:
        widths = default_widths(n_common)
    if tops is None:
        tops = default_widths(n_common)
    pa, pb = _positions(order_a, order_b)
    report.interval_overlaps = _interval_overlaps(pa, pb, [w for w in widths if 1 <= w])
    report.top_overlap, report.bottom_overlap = _top_bottom_overlaps(
        pa, pb, n_common, [n for n in tops if 0 <= n <= n_common])

    doc_counts = d.doc_counts()
    pairs = [(doc_counts[e.stem], e.sfi_avg) for e in common]
    labels = [e.stem for e in common]
    report.src = spearman(pairs)
    report.pcc = pearson(pairs)
    report.pcc_log = pearson_log(pairs, labels)
    report.same_rank_words = same_rank_words(order_a, order_b)
    return report
