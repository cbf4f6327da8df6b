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
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

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
    downstream rank analyses are then skipped with a warning.
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
        sfi = _parse_float(rest[0]) if len(rest) >= 1 else None
        u = _parse_float(rest[1]) if len(rest) >= 2 else None
        d = _parse_float(rest[2]) if len(rest) >= 3 else None
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


def same_rank_words(ranks_a: Sequence[str], ranks_b: Sequence[str]) -> list[tuple[str, int]]:
    """Words occupying the same 1-based position in both orderings."""
    return [(a, i) for i, (a, b) in enumerate(zip(ranks_a, ranks_b), 1) if a == b]


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
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

    for w in (widths if widths is not None else default_widths(n_common)):
        if 1 <= w:
            report.interval_overlaps[w] = interval_overlap(order_a, order_b, w)

    for n in (tops if tops is not None else default_widths(n_common)):
        if 0 <= n <= n_common:
            report.top_overlap[n] = top_n_overlap(order_a, order_b, n)
            report.bottom_overlap[n] = bottom_n_overlap(order_a, order_b, n)

    doc_counts = d.doc_counts()
    pairs = [(doc_counts[e.stem], e.sfi_avg) for e in common]
    labels = [e.stem for e in common]
    report.src = spearman(pairs)
    report.pcc = pearson(pairs)
    report.pcc_log = pearson_log(pairs, labels)
    report.same_rank_words = same_rank_words(order_a, order_b)
    return report
