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
from itertools import compress
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
class StemmedEntry:
    stem: str
    sfi_avg: float | None
    source_headwords: tuple[str, ...]


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


def read_word_list(stream: IO[str]) -> tuple[WordListEntry, ...]:
    """Read a "headword,sfi[,u,d]" CSV; a header row is detected and skipped.

    Only the first row that is not blank may be the header. A row without
    a numeric second column yields an entry with sfi=None; if a stem is
    then left with no frequency index, `compare` skips the rank analyses
    with a warning. A nan or infinite sfi, u or d value raises
    `InputError`; sfi or d values outside their range are kept and
    counted in one warning per column.
    """
    entries = []
    outside = {"frequency index": [], "dispersion": []}  # row numbers, per kind
    first = True
    for row_no, row in enumerate(csv.reader(stream), 1):
        if not row or not row[0].strip():
            continue
        head = row[0].strip().lower()
        rest = [c.strip() for c in row[1:]]
        if first:
            first = False
            looks_numeric = any(_parse_float(c) is not None for c in rest if c)
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
            outside["frequency index"].append(row_no)
        if d is not None and not 0 <= d <= 1:
            outside["dispersion"].append(row_no)
        entries.append(WordListEntry(head, sfi, u, d))
    for kind, bounds in (("frequency index", "[0, 100]"), ("dispersion", "[0, 1]")):
        if rows := outside[kind]:
            logger.warning("%d row(s) hold a %s outside %s; first rows: %s", len(rows), kind,
                           bounds, ", ".join(map(str, rows[:5])))
    return tuple(entries)


def _parse_float(s: str) -> float | None:
    s = s.strip()
    if not s:
        return None
    try:
        return float(s)
    except ValueError:
        return None


def stem_merge(word_list: Sequence[WordListEntry]) -> tuple[StemmedEntry, ...]:
    """Stem every headword and merge those sharing a stem.

    The merged entry averages the available frequency indices of its
    source headwords. Entries are ordered by that average (descending,
    ties by stem) so the list order mirrors the published ranking.
    """
    groups: dict[str, list[WordListEntry]] = {}  # in the order stems first appear
    for e in word_list:
        groups.setdefault(stem(e.headword.lower()), []).append(e)
    merged = []
    for s, members in groups.items():
        sfis = [m.sfi for m in members if m.sfi is not None]
        sfi_avg = sum(sfis) / len(sfis) if sfis else None
        merged.append(StemmedEntry(s, sfi_avg, tuple(m.headword for m in members)))
    if all(e.sfi_avg is not None for e in merged):
        merged.sort(key=lambda e: (-e.sfi_avg, e.stem))
    return tuple(merged)


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


def _pearson(x: np.ndarray, y: np.ndarray, name: str) -> float | None:
    """Product-moment correlation of two equal-length arrays. Where it is
    undefined (fewer than 2 pairs, or an array without variance) it is
    None, with a warning naming the statistic."""
    if len(x) < 2:
        logger.warning("%s unavailable: fewer than 2 common words", name)
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0 or syy == 0:
        logger.warning("%s unavailable: zero variance", name)
        return None
    return float(np.dot(xc, yc) / np.sqrt(sxx * syy))


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

    Every table is read off one array: the dictionary rank of each stem
    of `word_list`, 0 for a stem the dictionary lacks. Rank analyses
    restrict both lists to the common words: ordering A is the
    dictionary's canonical order, ordering B the order of `word_list`,
    which `stem_merge` sorts by averaged frequency index. When any stem
    has no frequency index those analyses are skipped, with a warning
    that counts such stems and names the first five.
    """
    if len(word_list) == 0:
        raise ValueError("empty word list")
    stems = [e.stem for e in word_list]
    wanted = set(stems)
    if len(wanted) != len(stems):
        raise ValueError("the word list must not repeat a stem")
    ranks = {w: r for r, w in enumerate(d.words(), 1) if w in wanted}
    rank = np.fromiter((ranks.get(s, 0) for s in stems), np.int64, len(stems))
    common = np.flatnonzero(rank)  # list positions of the common words
    common_rank = rank[common]
    by_rank = np.argsort(common_rank)  # ordering A, as positions in ordering B
    n_common = len(common)
    report = ComparisonReport(
        n_headwords=sum(len(e.source_headwords) for e in word_list),
        n_stems=len(stems),
        n_dict_words=len(d),
        coverage_count=n_common,
        coverage_pct=n_common / len(stems),
        missing_words=list(compress(stems, (rank == 0).tolist())),
    )

    if fragment_ks is None:
        fragment_ks = [k for k in (1000, 5000, 10000, 15000, 20000, 25000, 30000,
                                   35000, 40000, 45000, 50000, 55000, 60000,
                                   75000, 80000) if k <= len(d)] + [len(d)]
    # Row k counts the common words of dictionary rank up to k; those not
    # in the previous row are listed in dictionary order.
    sorted_ranks = common_rank[by_rank]
    found = 0
    for k in sorted(set(fragment_ks)):
        k_eff = min(k, len(d))
        if k_eff < k:
            logger.warning("fragment size %d clamped to dictionary size %d", k, len(d))
        previous, found = found, int(np.searchsorted(sorted_ranks, k_eff, side="right"))
        added = [stems[i] for i in common[by_rank[previous:found]].tolist()]
        report.fragment_table.append((k_eff, found, found / len(stems), added))

    no_sfi = [e.stem for e in word_list if e.sfi_avg is None]
    if no_sfi:
        logger.warning("%d of %d stems have no frequency index (%s%s); rank analyses skipped",
                       len(no_sfi), len(stems), ", ".join(no_sfi[:5]),
                       ", ..." if len(no_sfi) > 5 else "")
        return report
    if not n_common:
        return report
    report.common_words = [stems[i] for i in common.tolist()]

    deepest = np.maximum.accumulate(common_rank).tolist()
    report.last_position_table = [
        (m, deepest[m - 1], deepest[m - 1] / len(d))
        for m in sorted(set(range(100, n_common, 100)) | {n_common})]

    if widths is None:
        widths = default_widths(n_common)
    if tops is None:
        tops = default_widths(n_common)
    for n in sorted(set(tops)):
        if n > n_common:
            logger.warning("top/bottom size %d dropped: only %d common words", n, n_common)
    pa, pb = np.arange(n_common), by_rank
    report.interval_overlaps = _interval_overlaps(pa, pb, [w for w in widths if 1 <= w])
    report.top_overlap, report.bottom_overlap = _top_bottom_overlaps(
        pa, pb, n_common, [n for n in tops if 0 <= n <= n_common])
    report.same_rank_words = [(report.common_words[i], i + 1)
                              for i in np.flatnonzero(pa == pb).tolist()]

    x = d.doc[common_rank - 1].astype(float)
    y = np.array([word_list[i].sfi_avg for i in common.tolist()], dtype=float)
    report.src = _pearson(_fractional_ranks(x), _fractional_ranks(y), "src")
    report.pcc = _pearson(x, y, "pcc")
    non_positive = np.flatnonzero(y <= 0)  # doc counts are at least 1
    if len(non_positive):
        logger.warning("pcc_log unavailable: non-positive value under log for %s",
                       report.common_words[non_positive[0]])
    else:
        report.pcc_log = _pearson(np.log(x), np.log(y), "pcc_log")
    return report
