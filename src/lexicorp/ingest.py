"""Parsing and cleaning of tab-delimited bibliographic record exports.

Cleaning takes each record through four steps in one pass: parse its
line, drop it when it has no abstract or no categories, split
section-heading words that the export glued onto the following word
("ConclusionHigher"), and keep it only when its abstract length falls
within the configured bounds. Each kept record is written once cleaned.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, Iterator

from .config import InputError, PipelineConfig, default_config

logger = logging.getLogger(__name__)

# Canonical column order of a corpus file.
FIELD_ORDER = (
    "authors",
    "title",
    "abstract",
    "categories",
    "research_areas",
    "total_times_cited",
    "times_cited_core",
)

_LIST_FIELDS = {"authors", "categories", "research_areas"}
_INT_FIELDS = {"total_times_cited", "times_cited_core"}

# Accepted header spellings, lowercased.
_HEADER_ALIASES = {
    "au": "authors", "authors": "authors",
    "ti": "title", "title": "title",
    "ab": "abstract", "abstract": "abstract",
    "wc": "categories", "categories": "categories",
    "sc": "research_areas", "research areas": "research_areas",
    "research_areas": "research_areas",
    "z9": "total_times_cited", "total times cited": "total_times_cited",
    "total_times_cited": "total_times_cited",
    "tc": "times_cited_core", "times cited in cc": "times_cited_core",
    "times_cited_core": "times_cited_core",
}

_CANONICAL_HEADER_NAMES = {
    "authors": "Authors",
    "title": "Title",
    "abstract": "Abstract",
    "categories": "Categories",
    "research_areas": "Research Areas",
    "total_times_cited": "Total Times Cited",
    "times_cited_core": "Times Cited in CC",
}


@dataclass
class RawRecord:
    """One bibliographic record as parsed from an export line."""

    authors: list[str] = field(default_factory=list)
    title: str = ""
    abstract: str = ""
    categories: list[str] = field(default_factory=list)
    research_areas: list[str] = field(default_factory=list)
    total_times_cited: int = 0
    times_cited_core: int = 0


@dataclass
class IngestReport:
    n_parsed: int = 0
    n_after_field_filter: int = 0
    n_after_length_filter: int = 0
    n_headings_split: int = 0


@dataclass
class ParseError:
    line_no: int
    reason: str


def _resolve_header(cells: list[str]) -> dict[str, int]:
    mapping = {}
    for i, cell in enumerate(cells):
        name = _HEADER_ALIASES.get(cell.strip().lower())
        if name is not None and name not in mapping:
            mapping[name] = i
    missing = [f for f in FIELD_ORDER if f not in mapping]
    if missing:
        raise InputError(f"header is missing required columns: {', '.join(missing)}")
    return mapping


def parse_records(stream: Iterable[str] | IO[str]) -> Iterator[RawRecord | ParseError]:
    """Yield each record of a tab-delimited export, in line order.

    Line 1 is the header naming the columns (WoS field tags or full
    names); it is read on the first `next()`, which raises `InputError`
    when it is missing or lacks a required column. A malformed line
    (wrong column count, unparsable citation count) yields a
    `ParseError` with its 1-based line number instead of a record; it is
    never dropped silently.
    """
    lines = enumerate(stream, 1)
    first = next(lines, None)
    if first is None:
        raise InputError("no header row")
    # Windows tools often start UTF-8 exports with a byte-order mark.
    cells = first[1].rstrip("\n").rstrip("\r").removeprefix("\ufeff").split("\t")
    columns = _resolve_header(cells)
    expected = len(cells)

    for line_no, line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != expected:
            yield ParseError(line_no, f"expected {expected} columns, got {len(cells)}")
            continue
        kwargs = {}
        bad = None
        for name, idx in columns.items():
            value = cells[idx].strip()
            if name in _LIST_FIELDS:
                items = [v.strip() for v in value.split(";")]
                kwargs[name] = [v for v in items if v]
            elif name in _INT_FIELDS:
                try:
                    n = int(value) if value else 0
                except ValueError:
                    bad = f"non-integer value {value!r} in column {name}"
                    break
                if n < 0:
                    bad = f"negative count {n} in column {name}"
                    break
                kwargs[name] = n
            else:
                kwargs[name] = value
        yield RawRecord(**kwargs) if bad is None else ParseError(line_no, bad)


@lru_cache(maxsize=16)
def _heading_re(forms: tuple[str, ...]) -> re.Pattern:
    ordered = sorted(forms, key=len, reverse=True)
    alternation = "|".join(re.escape(f) for f in ordered)
    return re.compile(rf"({alternation})(?=[A-Z])")


def split_concatenated_headings(text: str, headings) -> tuple[str, int]:
    """Insert a space after each heading word glued to a capitalised word.

    `headings` are the expanded surface forms ("Conclusion",
    "Conclusions", ...); the longest matching form wins, so
    "ConclusionsRT" becomes "Conclusions RT". Returns the corrected text
    and the number of splits.
    """
    return _heading_re(tuple(headings)).subn(r"\1 ", text)


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs in `text`."""
    return len(text.split())


def run_ingest(
    stream: Iterable[str] | IO[str],
    out: IO[str],
    config: PipelineConfig | None = None,
) -> tuple[dict[int, int], IngestReport, list[ParseError]]:
    """Clean an export one record at a time: field filter, heading split, length filter.

    Writes each kept record to `out` as soon as it is cleaned and returns
    the kept word counts ({words: documents}), the stage counts and the
    parse errors. Records with more than 6 categories are kept; one
    warning per call gives their number and the first 5 titles.
    """
    config = config or default_config()
    forms = config.heading_forms
    report = IngestReport()
    lengths: dict[int, int] = {}
    errors: list[ParseError] = []
    crowded: list[str] = []
    n_crowded = 0

    def kept() -> Iterator[RawRecord]:
        nonlocal n_crowded
        for r in parse_records(stream):
            if isinstance(r, ParseError):
                errors.append(r)
                continue
            report.n_parsed += 1
            if not r.abstract.strip() or not r.categories:
                continue
            report.n_after_field_filter += 1
            if len(r.categories) > 6:
                n_crowded += 1
                if len(crowded) < 5:
                    crowded.append(r.title[:40])
            r.abstract, n_splits = split_concatenated_headings(r.abstract, forms)
            report.n_headings_split += n_splits
            n_words = word_count(r.abstract)
            if config.min_len <= n_words <= config.max_len:
                lengths[n_words] = lengths.get(n_words, 0) + 1
                yield r

    report.n_after_length_filter = write_corpus(kept(), out)
    if n_crowded:
        logger.warning("%d record(s) have more than 6 categories (kept); first titles: %s",
                       n_crowded, ", ".join(map(repr, crowded)))
    return lengths, report, errors


def format_record(record: RawRecord) -> str:
    """One canonical corpus line (7 tab-separated columns)."""
    sep = "; "
    cells = [
        sep.join(record.authors),
        record.title,
        record.abstract,
        sep.join(record.categories),
        sep.join(record.research_areas),
        str(record.total_times_cited),
        str(record.times_cited_core),
    ]
    return "\t".join(cells)


def corpus_header() -> str:
    return "\t".join(_CANONICAL_HEADER_NAMES[f] for f in FIELD_ORDER)


def write_corpus(records: Iterable[RawRecord], stream: IO[str]) -> int:
    """Write records as a canonical corpus file; returns the record count."""
    stream.write(corpus_header() + "\n")
    n = 0
    for r in records:
        stream.write(format_record(r) + "\n")
        n += 1
    return n


def write_report(report: IngestReport, stream: IO[str]) -> None:
    for key in ("n_parsed", "n_after_field_filter", "n_after_length_filter",
                "n_headings_split"):
        stream.write(f"{key}\t{getattr(report, key)}\n")
