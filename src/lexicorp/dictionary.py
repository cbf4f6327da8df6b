"""Document-frequency dictionaries built from processed token lists.

Entries are ordered by the number of documents containing the word
(descending), then total corpus occurrences (descending), then the word
itself, which makes serialisation and all fragment analyses
deterministic. A word occurring several times in one document counts
once toward its document count.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable

from .config import InputError


class DictionaryFormatError(InputError):
    """A dictionary file that cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DictEntry:
    word: str
    doc_count: int
    corpus_count: int


@dataclass(frozen=True)
class Provenance:
    corpus_id: str = ""
    config_hash: str = ""
    threshold: int = 0


_SORT_KEY = lambda e: (-e.doc_count, -e.corpus_count, e.word)


class Dictionary:
    """An ordered list of (word, doc_count, corpus_count) entries."""

    def __init__(self, entries: Iterable[DictEntry], provenance: Provenance = Provenance()):
        self.entries = sorted(entries, key=_SORT_KEY)
        self.provenance = provenance
        self._rank: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.ranks()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dictionary)
                and self.entries == other.entries
                and self.provenance == other.provenance)

    def words(self) -> list[str]:
        return [e.word for e in self.entries]

    def ranks(self) -> dict[str, int]:
        """word -> 1-based rank in canonical order (cached)."""
        if self._rank is None:
            self._rank = {e.word: i for i, e in enumerate(self.entries, 1)}
        return self._rank

    def doc_counts(self) -> dict[str, int]:
        return {e.word: e.doc_count for e in self.entries}


def build(
    token_lists: Iterable[tuple[str, list[str]]],
    corpus_id: str = "",
    config_hash: str = "",
) -> Dictionary:
    """Count doc/corpus frequencies over (doc_id, tokens) pairs."""
    doc_counts: Counter = Counter()
    corpus_counts: Counter = Counter()
    for _, tokens in token_lists:
        corpus_counts.update(tokens)
        doc_counts.update(set(tokens))
    entries = [DictEntry(w, doc_counts[w], c) for w, c in corpus_counts.items()]
    return Dictionary(entries, Provenance(corpus_id, config_hash, threshold=0))


def merge(a: Dictionary, b: Dictionary) -> Dictionary:
    """Combine dictionaries built from disjoint document sets.

    Counts are summed per word, so merge(build(X), build(Y)) equals
    build(X + Y) whenever X and Y share no documents. Dictionaries built
    under different configs count different things and are refused.
    """
    if a.provenance.config_hash != b.provenance.config_hash:
        raise ValueError(f"cannot merge dictionaries of configs "
                         f"{a.provenance.config_hash!r} and {b.provenance.config_hash!r}")
    doc_counts: Counter = Counter()
    corpus_counts: Counter = Counter()
    for d in (a, b):
        for e in d.entries:
            doc_counts[e.word] += e.doc_count
            corpus_counts[e.word] += e.corpus_count
    entries = [DictEntry(w, doc_counts[w], corpus_counts[w]) for w in corpus_counts]
    return Dictionary(entries, a.provenance)


def prune(d: Dictionary, threshold: int) -> Dictionary:
    """Keep entries whose doc_count strictly exceeds `threshold`."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    entries = [e for e in d.entries if e.doc_count > threshold]
    prov = Provenance(d.provenance.corpus_id, d.provenance.config_hash,
                      max(threshold, d.provenance.threshold))
    return Dictionary(entries, prov)


_HEADER_RE = re.compile(
    r"#lexicorp-dict v1 threshold=(\d+) config=(\S*)(?: corpus=(\S*))?\s*$"
)


def serialize(d: Dictionary, stream: IO[str]) -> None:
    """Write the interchange format: header line, then one entry per line."""
    p = d.provenance
    header = f"#lexicorp-dict v1 threshold={p.threshold} config={p.config_hash}"
    if p.corpus_id:
        header += f" corpus={p.corpus_id}"
    stream.write(header + "\n")
    for e in d.entries:
        stream.write(f"{e.word}\t{e.doc_count}\t{e.corpus_count}\n")


def deserialize(stream: IO[str]) -> Dictionary:
    """Read a dictionary file; malformed content fails with its line number."""
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
    return Dictionary(entries, provenance)


def load(path) -> Dictionary:
    with open(path, encoding="utf-8") as f:
        return deserialize(f)


def save(d: Dictionary, path) -> None:
    """Write `d` to `path` through a temporary file in the same directory,
    so a write that fails part-way leaves any previous file intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            serialize(d, f)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
