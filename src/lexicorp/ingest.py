"""Parsing and cleaning of tab-delimited bibliographic record exports.

An export and the corpus file that ingest writes share one grammar: a
header line naming the columns, then one record per line as 7 cells in
`FIELD_ORDER`. Each cell is stripped, a list cell ("A; B") is split on
";", emptied of blanks and joined with "; ", and a count cell is written
as `str(int(cell))`.

Cleaning takes each record through four steps in one pass: parse its
line, drop it when it has no abstract or no categories, split
section-heading words that the export glued onto the following word
("ConclusionHigher"), and keep it only when its abstract length falls
within the configured bounds. Each kept record is written once cleaned.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .config import InputError, PipelineConfig, default_config

logger = logging.getLogger(__name__)

# One row per corpus column, in corpus order: field name, corpus-file
# header, WoS field tag and kind ("list" cells split on ";", "count"
# cells hold an integer).
_COLUMNS = (
    ("authors", "Authors", "AU", "list"),
    ("title", "Title", "TI", ""),
    ("abstract", "Abstract", "AB", ""),
    ("categories", "Categories", "WC", "list"),
    ("research_areas", "Research Areas", "SC", "list"),
    ("total_times_cited", "Total Times Cited", "Z9", "count"),
    ("times_cited_core", "Times Cited in CC", "TC", "count"),
)
FIELD_ORDER = tuple(name for name, _, _, _ in _COLUMNS)
# Positions in FIELD_ORDER of the cells that ingest and build read.
_, TITLE, ABSTRACT, CATEGORIES, *_ = range(len(_COLUMNS))
_LIST_CELLS = tuple(i for i, (_, _, _, kind) in enumerate(_COLUMNS) if kind == "list")
_COUNT_FIELDS = tuple(name for name, _, _, kind in _COLUMNS if kind == "count")
# Accepted header spellings, lowercased: the tag, the header or the field name.
_HEADER_ALIASES = {alias.lower(): name
                   for name, header, tag, _ in _COLUMNS for alias in (tag, header, name)}
CORPUS_HEADER = "\t".join(header for _, header, _, _ in _COLUMNS)


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


def parse_records(stream: Iterable[str] | IO[str]) -> Iterator[list[str] | ParseError]:
    """Yield each record of a tab-delimited export as its 7 canonical cells.

    Line 1 is the header naming the columns (WoS field tags or full
    names); it is read on the first `next()`, which raises `InputError`
    when it is missing or lacks a required column. Each record is a list
    of cells in `FIELD_ORDER`, normalised as the module docstring says.
    A malformed line (wrong column count, a count cell that `int()`
    refuses or that is negative; an empty one is 0) yields a `ParseError`
    with its 1-based line number instead; it is never dropped silently.
    Of two bad count cells, the one first in the header is reported.
    """
    lines = enumerate(stream, 1)
    first = next(lines, None)
    if first is None:
        raise InputError("no header row")
    # A UTF-8 byte-order mark that `open_input` did not drop: a stream passed in.
    cells = first[1].rstrip("\n").rstrip("\r").removeprefix("\ufeff").split("\t")
    columns = _resolve_header(cells)
    expected = len(cells)
    pick = itemgetter(*(columns[f] for f in FIELD_ORDER))
    counts = [(FIELD_ORDER.index(f), f) for f in sorted(_COUNT_FIELDS, key=columns.get)]

    for line_no, line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != expected:
            yield ParseError(line_no, f"expected {expected} columns, got {len(cells)}")
            continue
        row = list(map(str.strip, pick(cells)))
        for i in _LIST_CELLS:
            if ";" in row[i]:
                row[i] = "; ".join(filter(None, map(str.strip, row[i].split(";"))))
        for i, name in counts:
            try:
                n = int(row[i] or 0)
            except ValueError:
                yield ParseError(line_no, f"non-integer value {row[i]!r} in column {name}")
                break
            if n < 0:
                yield ParseError(line_no, f"negative count {n} in column {name}")
                break
            row[i] = str(n)
        else:
            yield row


@lru_cache(maxsize=16)
def _heading_rules(forms: tuple[str, ...]) -> tuple[bytes | None, re.Pattern]:
    """The byte gate and the split pattern of a tuple of heading forms.

    The gate maps ASCII capitals to "A", the last character of each form
    to "a" and every other byte to a space, so a text whose UTF-8 bytes
    translate to no b"aA" holds no form followed by a capital. It is None
    when a form is empty or ends in a non-ASCII character or a capital.
    """
    ordered = sorted(forms, key=len, reverse=True)
    alternation = "|".join(re.escape(f) for f in ordered)
    pattern = re.compile(rf"({alternation})(?=[A-Z])")
    lasts = {f[-1:] for f in forms}
    if not all(c and c.isascii() and not "A" <= c <= "Z" for c in lasts):
        return None, pattern
    gate = "".join("A" if "A" <= c <= "Z" else "a" if c in lasts else " "
                   for c in map(chr, range(256)))
    return gate.encode("latin-1"), pattern


def split_concatenated_headings(text: str, headings) -> tuple[str, int]:
    """Insert a space after each heading word glued to a capitalised word.

    `headings` are the expanded surface forms ("Conclusion",
    "Conclusions", ...); the longest matching form wins, so
    "ConclusionsRT" becomes "Conclusions RT". Returns the corrected text
    and the number of splits. With no forms nothing is split. A text
    whose bytes hold no form's last letter followed by a capital skips
    the regular expression.
    """
    forms = tuple(headings)
    if not forms:
        return text, 0
    gate, pattern = _heading_rules(forms)
    if gate is not None and b"aA" not in text.encode("utf-8", "surrogatepass").translate(gate):
        return text, 0
    return pattern.subn(r"\1 ", text)


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

    def kept() -> Iterator[list[str]]:
        nonlocal n_crowded
        for cells in parse_records(stream):
            if isinstance(cells, ParseError):
                errors.append(cells)
                continue
            report.n_parsed += 1
            if not cells[ABSTRACT] or not cells[CATEGORIES]:
                continue
            report.n_after_field_filter += 1
            if cells[CATEGORIES].count(";") > 5:
                n_crowded += 1
                if len(crowded) < 5:
                    crowded.append(cells[TITLE][:40])
            cells[ABSTRACT], n_splits = split_concatenated_headings(cells[ABSTRACT], forms)
            report.n_headings_split += n_splits
            n_words = len(cells[ABSTRACT].split())
            if config.min_len <= n_words <= config.max_len:
                lengths[n_words] = lengths.get(n_words, 0) + 1
                yield cells

    write_corpus(kept(), out)
    report.n_after_length_filter = sum(lengths.values())
    if n_crowded:
        logger.warning("%d record(s) have more than 6 categories (kept); first titles: %s",
                       n_crowded, ", ".join(map(repr, crowded)))
    return lengths, report, errors


def write_corpus(rows: Iterable[list[str]], stream: IO[str]) -> None:
    """Write rows of canonical cells as given, tab-joined, under the canonical header."""
    stream.write(CORPUS_HEADER + "\n")
    for cells in rows:
        stream.write("\t".join(cells) + "\n")
