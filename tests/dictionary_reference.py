"""Dictionary code as it was before the columnar `Dictionary`, kept as the
oracles that tests/test_dictionary.py and tests/test_lexstats.py check
against:

- the reader from before the single-pass loader: frozen dataclass
  entries, a per-line parse with every check in sequence, and a sort of
  the result by the canonical key whatever order the rows came in;
- the writer that wrote one row per `stream.write`;
- the histogram that counted doc counts in a dict, row by row;
- the chunk parser from before the counts and words were read from the
  chunk's bytes: it split the chunk into one string per cell and parsed
  the counts with `np.array(cells, dtype=np.int64)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from lexicorp.dictionary import _BLANK_LINE_RE, _HEADER_RE, DictionaryFormatError, Provenance


@dataclass(frozen=True)
class DictEntry:
    word: str
    doc_count: int
    corpus_count: int


_SORT_KEY = lambda e: (-e.doc_count, -e.corpus_count, e.word)


def deserialize(stream: IO[str]) -> tuple[list[DictEntry], Provenance]:
    """Read a dictionary file; returns its entries in canonical order and
    its provenance. Malformed content fails with its line number."""
    entries = []
    seen: set[str] = set()
    provenance = None
    for line_no, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if line_no == 1:
            m = _HEADER_RE.match(line)
            if not m:
                raise DictionaryFormatError(line_no, f"bad header: {line!r}")
            provenance = Provenance(corpus_id=m.group(3) or "",
                                    config_hash=m.group(2),
                                    threshold=int(m.group(1)))
            continue
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DictionaryFormatError(line_no, f"expected 3 columns, got {len(parts)}")
        word, doc_s, corpus_s = parts
        try:
            doc_count, corpus_count = int(doc_s), int(corpus_s)
        except ValueError:
            raise DictionaryFormatError(line_no, f"non-integer count in {line!r}") from None
        if not word or doc_count < 1 or corpus_count < doc_count:
            raise DictionaryFormatError(line_no, f"invalid entry {line!r}")
        if word in seen:
            raise DictionaryFormatError(line_no, f"duplicate word {word!r}")
        seen.add(word)
        entries.append(DictEntry(word, doc_count, corpus_count))
    if provenance is None:
        raise DictionaryFormatError(0, "empty file (missing header)")
    return sorted(entries, key=_SORT_KEY), provenance


def serialize(entries, provenance: Provenance, stream: IO[str]) -> None:
    """Write the interchange format: header line, then one entry per line."""
    p = provenance
    header = f"#lexicorp-dict v1 threshold={p.threshold} config={p.config_hash}"
    if p.corpus_id:
        header += f" corpus={p.corpus_id}"
    stream.write(header + "\n")
    for e in entries:
        stream.write(f"{e.word}\t{e.doc_count}\t{e.corpus_count}\n")


def histogram_counts(entries) -> dict[int, int]:
    """counts[n] = number of entries with doc_count n."""
    counts: dict[int, int] = {}
    for e in entries:
        counts[e.doc_count] = counts.get(e.doc_count, 0) + 1
    return counts


def parse_chunk(chunk: str):
    """The (words, doc, corpus) columns of `chunk`, whole lines each ending
    in "\\n", if every line is a well formed row or blank; else None.
    Repeated words are not checked here."""
    if chunk.startswith("\n") or "\n\n" in chunk:
        chunk = _BLANK_LINE_RE.sub("", chunk)
    # UTF-8 keeps "\t" and "\n" as single bytes found nowhere else, so
    # every line holds three cells exactly when the tabs and newlines come
    # as tab, tab, newline throughout.
    code = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
    seps = code[(code == 9) | (code == 10)]
    if (len(seps) % 3 or (seps.reshape(-1, 3) != (9, 9, 10)).any()
            or chunk.startswith("\t") or "\n\t" in chunk):
        return None
    cells = chunk.replace("\n", "\t").split("\t")
    cells.pop()
    try:
        # numpy parses each string by the rules of int(), and raises
        # OverflowError for a value outside int64.
        doc = np.array(cells[1::3], dtype=np.int64)
        corpus = np.array(cells[2::3], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not ((doc >= 1).all() and (corpus >= doc).all()):
        return None
    return cells[0::3], doc, corpus
