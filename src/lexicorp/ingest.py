"""Parsing and cleaning of tab-delimited bibliographic record exports.

Cleaning follows four stages: parse the export, drop records without an
abstract or without categories, split section-heading words that the
export glued onto the following word ("ConclusionHigher"), and keep only
documents whose abstract length falls within the configured bounds.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable

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
class Document(RawRecord):
    """A retained record, with its abstract's whitespace word count."""

    word_count: int = 0


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


@dataclass(frozen=True)
class RecordFormat:
    """How to map export columns onto record fields.

    With `header=True` the first line names the columns (WoS field tags
    or full names are both accepted). Otherwise `columns` gives explicit
    0-based indices per field.
    """

    header: bool = True
    columns: tuple[tuple[str, int], ...] | None = None
    delimiter: str = "\t"
    list_separator: str = ";"


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


def parse_records(
    stream: Iterable[str] | IO[str],
    fmt: RecordFormat | None = None,
) -> tuple[list[RawRecord], list[ParseError]]:
    """Parse a tab-delimited export into records plus an error ledger.

    Malformed lines (wrong column count, unparsable citation counts) are
    skipped and reported with their 1-based line number; they are never
    dropped silently.
    """
    fmt = fmt or RecordFormat()
    records: list[RawRecord] = []
    errors: list[ParseError] = []
    columns: dict[str, int] | None = dict(fmt.columns) if fmt.columns else None
    expected = None
    if columns is not None:
        expected = max(columns.values()) + 1

    for line_no, line in enumerate(stream, 1):
        line = line.rstrip("\n").rstrip("\r")
        if line_no == 1 and fmt.header and columns is None:
            # Windows tools often start UTF-8 exports with a byte-order mark.
            cells = line.removeprefix("\ufeff").split(fmt.delimiter)
            columns = _resolve_header(cells)
            expected = len(cells)
            continue
        if columns is None:
            raise ValueError("no header row and no explicit column mapping given")
        if not line.strip():
            continue
        cells = line.split(fmt.delimiter)
        if len(cells) != expected:
            errors.append(ParseError(line_no, f"expected {expected} columns, got {len(cells)}"))
            continue
        kwargs = {}
        bad = None
        for name, idx in columns.items():
            value = cells[idx].strip()
            if name in _LIST_FIELDS:
                items = [v.strip() for v in value.split(fmt.list_separator)]
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
        if bad is not None:
            errors.append(ParseError(line_no, bad))
            continue
        records.append(RawRecord(**kwargs))
    return records, errors


def filter_invalid(records: list[RawRecord]) -> list[RawRecord]:
    """Keep records with a non-empty abstract and at least one category."""
    kept = []
    for r in records:
        if not r.abstract.strip() or not r.categories:
            continue
        if len(r.categories) > 6:
            logger.warning("record %r has %d categories (expected at most 6)",
                           r.title[:40], len(r.categories))
        kept.append(r)
    return kept


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


def filter_by_length(docs: list[Document], min_len: int, max_len: int) -> list[Document]:
    """Keep documents whose word_count lies in [min_len, max_len]."""
    if min_len > max_len:
        raise ValueError("min_len must not exceed max_len")
    return [d for d in docs if min_len <= d.word_count <= max_len]


def length_histogram(docs: list[Document]) -> tuple[dict[int, int], float | None]:
    """Exact word-count histogram plus the mean length (None when empty)."""
    counts: dict[int, int] = {}
    total = 0
    for d in docs:
        counts[d.word_count] = counts.get(d.word_count, 0) + 1
        total += d.word_count
    mean = total / len(docs) if docs else None
    return counts, mean


def run_ingest(
    stream: Iterable[str] | IO[str],
    config: PipelineConfig | None = None,
    fmt: RecordFormat | None = None,
) -> tuple[list[Document], IngestReport, list[ParseError]]:
    """Full cleaning pass: parse, field-filter, split headings, length-filter."""
    config = config or default_config()
    records, errors = parse_records(stream, fmt)
    report = IngestReport(n_parsed=len(records))

    valid = filter_invalid(records)
    report.n_after_field_filter = len(valid)

    forms = config.heading_forms
    docs: list[Document] = []
    for r in valid:
        abstract, n_splits = split_concatenated_headings(r.abstract, forms)
        report.n_headings_split += n_splits
        docs.append(Document(
            authors=r.authors, title=r.title, abstract=abstract,
            categories=r.categories, research_areas=r.research_areas,
            total_times_cited=r.total_times_cited,
            times_cited_core=r.times_cited_core,
            word_count=word_count(abstract),
        ))

    docs = filter_by_length(docs, config.min_len, config.max_len)
    report.n_after_length_filter = len(docs)
    return docs, report, errors


def format_record(record: RawRecord, fmt: RecordFormat | None = None) -> str:
    """One canonical corpus line (7 tab-separated columns)."""
    sep = (fmt.list_separator if fmt else ";") + " "
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
