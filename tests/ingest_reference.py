"""The ingest stages as they were before records streamed through one
loop: `parse_records` returns the list of every record plus an error
list, and `run_ingest` runs the field filter, the heading split and the
length filter as separate passes, each building a full list of
`Document`s, which `length_histogram` then walks once more. The heading
split runs its regular expression on every text and the word count
splits every text. Kept as the oracle that tests/test_ingest.py checks
the streaming `run_ingest`, the heading gate and the byte word count
against.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import IO, Iterable

from lexicorp.config import InputError, PipelineConfig, default_config
from lexicorp.ingest import IngestReport, ParseError, RawRecord, _resolve_header

logger = logging.getLogger(__name__)

_LIST_FIELDS = {"authors", "categories", "research_areas"}
_INT_FIELDS = {"total_times_cited", "times_cited_core"}


def split_concatenated_headings(text: str, headings) -> tuple[str, int]:
    """The regular-expression split, run on every text.

    With no forms nothing is split; the old code compiled "()(?=[A-Z])"
    there and split before every capital letter.
    """
    forms = tuple(headings)
    if not forms:
        return text, 0
    ordered = sorted(forms, key=len, reverse=True)
    alternation = "|".join(re.escape(f) for f in ordered)
    return re.compile(rf"({alternation})(?=[A-Z])").subn(r"\1 ", text)


def word_count(text: str) -> int:
    return len(text.split())


@dataclass
class Document(RawRecord):
    """A retained record, with its abstract's whitespace word count."""

    word_count: int = 0


def length_histogram(docs: list[Document]) -> tuple[dict[int, int], float | None]:
    """Exact word-count histogram plus the mean length (None when empty)."""
    counts: dict[int, int] = {}
    total = 0
    for d in docs:
        counts[d.word_count] = counts.get(d.word_count, 0) + 1
        total += d.word_count
    mean = total / len(docs) if docs else None
    return counts, mean


def parse_records(stream: Iterable[str] | IO[str]) -> tuple[list[RawRecord], list[ParseError]]:
    records: list[RawRecord] = []
    errors: list[ParseError] = []
    lines = enumerate(stream, 1)
    first = next(lines, None)
    if first is None:
        raise InputError("no header row")
    cells = first[1].rstrip("\n").rstrip("\r").removeprefix("\ufeff").split("\t")
    columns = _resolve_header(cells)
    expected = len(cells)

    for line_no, line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != expected:
            errors.append(ParseError(line_no, f"expected {expected} columns, got {len(cells)}"))
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
        if bad is not None:
            errors.append(ParseError(line_no, bad))
            continue
        records.append(RawRecord(**kwargs))
    return records, errors


def filter_invalid(records: list[RawRecord]) -> list[RawRecord]:
    kept = []
    for r in records:
        if not r.abstract.strip() or not r.categories:
            continue
        if len(r.categories) > 6:
            logger.warning("record %r has %d categories (expected at most 6)",
                           r.title[:40], len(r.categories))
        kept.append(r)
    return kept


def filter_by_length(docs: list[Document], min_len: int, max_len: int) -> list[Document]:
    if min_len > max_len:
        raise ValueError("min_len must not exceed max_len")
    return [d for d in docs if min_len <= d.word_count <= max_len]


def run_ingest(
    stream: Iterable[str] | IO[str],
    config: PipelineConfig | None = None,
) -> tuple[list[Document], IngestReport, list[ParseError]]:
    config = config or default_config()
    records, errors = parse_records(stream)
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
