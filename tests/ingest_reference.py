"""The ingest stages as they were before records streamed through one
loop and became lists of cells.

`parse_records` yields a `RawRecord` (a kwargs dict per line) or a
`ParseError`, and `format_record` writes a record back as a corpus line.
`run_ingest` runs the field filter, the heading split and the length
filter as separate passes, each building a full list of `Document`s,
which `length_histogram` then walks once more. The heading split runs
its regular expression on every text and the word count splits every
text. `build_dictionary` is `lexicorp build`'s reading of a corpus file
through `RawRecord`s. Kept as the oracle that tests/test_ingest.py and
tests/test_cli.py check the streaming `run_ingest`, the cell reader,
the heading gate, the byte word count and build's reader against.
"""

from __future__ import annotations

import io
import logging
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from lexicorp import dictionary
from lexicorp.config import InputError, PipelineConfig, default_config
from lexicorp.dictionary import DictionaryFormatError
from lexicorp.ingest import IngestReport, ParseError, _resolve_header
from lexicorp.pipeline import process_document

logger = logging.getLogger(__name__)

_LIST_FIELDS = {"authors", "categories", "research_areas"}
_INT_FIELDS = {"total_times_cited", "times_cited_core"}


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


def parse_records(stream: Iterable[str] | IO[str]) -> Iterator[RawRecord | ParseError]:
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
    records, errors = [], []
    for r in parse_records(stream):
        (errors if isinstance(r, ParseError) else records).append(r)
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


def build_dictionary(corpus_path, corpus_id: str, config: PipelineConfig) -> tuple[str, str | None]:
    """The dictionary file text and the `.skipped.log` text (None when no
    document is empty) that `lexicorp build` wrote for a corpus file.

    Raises `DictionaryFormatError` at the first malformed line.
    """
    empty_docs = []

    def token_lists(records):
        for i, r in enumerate(records, 1):
            if isinstance(r, ParseError):
                raise DictionaryFormatError(r.line_no, f"malformed corpus file: {r.reason}")
            tokens = process_document(r.abstract, config)
            if tokens:
                yield f"doc{i}", tokens
            else:
                empty_docs.append((i, r.title))

    with open(corpus_path, encoding="utf-8") as f:
        d = dictionary.build(token_lists(parse_records(f)),
                             corpus_id=corpus_id, config_hash=config.config_hash())
    text = io.StringIO()
    dictionary.serialize(d, text)
    skipped = "".join(f"record {i}\tno tokens after processing\t{title}\n"
                      for i, title in empty_docs)
    return text.getvalue(), skipped or None
