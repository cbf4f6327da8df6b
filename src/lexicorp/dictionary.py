"""Document-frequency dictionaries built from processed token lists.

Entries are ordered by the number of documents containing the word
(descending), then total corpus occurrences (descending), then the word
itself, which makes serialisation and all fragment analyses
deterministic. A word occurring several times in one document counts
once toward its document count.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice
from typing import IO, Iterable, NamedTuple

import numpy as np

from .atomic import atomic_open
from .config import InputError

# Characters `deserialize` reads at a time; each chunk is then extended to
# the end of its last line. Reading the whole body at once holds the text
# and all its cells at the same time: loading a 300k-row file then peaked
# at 91 MiB RSS instead of 75 MiB.
_CHUNK_CHARS = 1 << 19
# Rows `serialize` formats into one string per write.
_ROWS_PER_WRITE = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max


class DictionaryFormatError(InputError):
    """A dictionary file that cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DictEntry(NamedTuple):
    word: str
    doc_count: int
    corpus_count: int


@dataclass(frozen=True)
class Provenance:
    corpus_id: str = ""
    config_hash: str = ""
    threshold: int = 0


class Dictionary:
    """Words in canonical order with their counts, held as three columns:
    the words (a list, copied by `words()`) and the read-only int64 arrays
    `doc` and `corpus`. `entries` builds the rows from them on access."""

    def __init__(self, entries: Iterable[DictEntry], provenance: Provenance = Provenance()):
        entries = list(entries)
        self._set(*_canonical([e[0] for e in entries],
                              np.array([e[1] for e in entries], dtype=np.int64),
                              np.array([e[2] for e in entries], dtype=np.int64)), provenance)

    @classmethod
    def _of_columns(cls, words: list[str], doc: np.ndarray, corpus: np.ndarray,
                    provenance: Provenance) -> Dictionary:
        """Wrap columns already in canonical order."""
        d = cls.__new__(cls)
        d._set(words, doc, corpus, provenance)
        return d

    def _set(self, words, doc, corpus, provenance) -> None:
        doc.flags.writeable = corpus.flags.writeable = False
        self._words, self.doc, self.corpus = words, doc, corpus
        self.provenance = provenance
        self._rank: dict[str, int] | None = None

    @property
    def entries(self) -> list[DictEntry]:
        """The rows as `DictEntry` tuples, built afresh on each access."""
        return list(map(DictEntry._make,
                        zip(self._words, self.doc.tolist(), self.corpus.tolist())))

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self.ranks()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dictionary)
                and self._words == other._words
                and np.array_equal(self.doc, other.doc)
                and np.array_equal(self.corpus, other.corpus)
                and self.provenance == other.provenance)

    def words(self) -> list[str]:
        return list(self._words)

    def ranks(self) -> dict[str, int]:
        """word -> 1-based rank in canonical order (cached)."""
        if self._rank is None:
            self._rank = dict(zip(self._words, range(1, len(self._words) + 1)))
        return self._rank

    def doc_counts(self) -> dict[str, int]:
        return dict(zip(self._words, self.doc.tolist()))


def _canonical(words: list[str], doc: np.ndarray, corpus: np.ndarray):
    """The three columns sorted into canonical order: by word, then by a
    stable sort on descending doc and corpus counts."""
    by_word = np.array(sorted(range(len(words)), key=words.__getitem__), dtype=np.intp)
    order = by_word[np.lexsort((-corpus[by_word], -doc[by_word]))]
    return list(map(words.__getitem__, order.tolist())), doc[order], corpus[order]


def _from_counts(doc_counts: Counter, corpus_counts: Counter, provenance: Provenance) -> Dictionary:
    words = list(corpus_counts)
    doc = np.fromiter(map(doc_counts.__getitem__, words), np.int64, len(words))
    corpus = np.fromiter(corpus_counts.values(), np.int64, len(words))
    return Dictionary._of_columns(*_canonical(words, doc, corpus), provenance)


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
    return _from_counts(doc_counts, corpus_counts, Provenance(corpus_id, config_hash, threshold=0))


def merge(a: Dictionary, b: Dictionary) -> Dictionary:
    """Combine dictionaries built from disjoint document sets.

    Counts are summed per word, so merge(build(X), build(Y)) equals
    build(X + Y) whenever X and Y share no documents. Dictionaries built
    under different configs count different things, and a pruned
    dictionary has lost the counts of the words it dropped, so both are
    refused.
    """
    if a.provenance.config_hash != b.provenance.config_hash:
        raise ValueError(f"cannot merge dictionaries of configs "
                         f"{a.provenance.config_hash!r} and {b.provenance.config_hash!r}")
    for d in (a, b):
        if d.provenance.threshold > 0:
            raise ValueError(f"cannot merge a dictionary pruned at threshold "
                             f"{d.provenance.threshold}: its dropped words' counts are lost")
    doc_counts: Counter = Counter()
    corpus_counts: Counter = Counter()
    for d in (a, b):
        doc_counts.update(d.doc_counts())
        corpus_counts.update(dict(zip(d._words, d.corpus.tolist())))
    return _from_counts(doc_counts, corpus_counts, a.provenance)


def prune(d: Dictionary, threshold: int) -> Dictionary:
    """Keep entries whose doc_count strictly exceeds `threshold`."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    # Doc counts never increase along the canonical order, so the kept
    # entries are a prefix of it.
    keep = int(np.count_nonzero(d.doc > threshold))
    prov = Provenance(d.provenance.corpus_id, d.provenance.config_hash,
                      max(threshold, d.provenance.threshold))
    return Dictionary._of_columns(d._words[:keep], d.doc[:keep], d.corpus[:keep], prov)


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
    for i in range(0, len(d), _ROWS_PER_WRITE):
        j = i + _ROWS_PER_WRITE
        stream.write("".join([f"{w}\t{dc}\t{cc}\n" for w, dc, cc in
                              zip(d._words[i:j], d.doc[i:j].tolist(), d.corpus[i:j].tolist())]))


def _parse_rows(lines: list[str], line_no: int, seen: set[str]):
    """Check and parse `lines`, the first of them line `line_no`, row by
    row, adding each word to `seen`; raises on the first bad row.
    Returns the (words, doc, corpus) columns."""
    words, docs, corpora = [], [], []
    for line_no, line in enumerate(lines, line_no):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise DictionaryFormatError(line_no, f"expected 3 columns, got {len(cells)}")
        word, doc_s, corpus_s = cells
        try:
            # int() ignores surrounding whitespace, a trailing "\r" included.
            doc_count, corpus_count = int(doc_s), int(corpus_s)
        except ValueError:
            raise DictionaryFormatError(line_no, f"non-integer count in {line!r}") from None
        if not word or doc_count < 1 or corpus_count < doc_count:
            raise DictionaryFormatError(line_no, f"invalid entry {line!r}")
        if corpus_count > _INT64_MAX:
            raise DictionaryFormatError(line_no, f"count out of range (above 2**63 - 1) in {line!r}")
        if word in seen:
            raise DictionaryFormatError(line_no, f"duplicate word {word!r}")
        seen.add(word)
        words.append(word)
        docs.append(doc_count)
        corpora.append(corpus_count)
    return words, np.array(docs, dtype=np.int64), np.array(corpora, dtype=np.int64)


def _parse_chunk(chunk: str):
    """The (words, doc, corpus) columns of `chunk`, whole lines each ending
    in "\\n", if every line is a well formed row; else None. Repeated words
    are not checked here."""
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
    n = len(cells) // 3
    try:
        doc = np.fromiter(map(int, cells[1::3]), np.int64, n)
        corpus = np.fromiter(map(int, cells[2::3]), np.int64, n)
    except (ValueError, OverflowError):
        return None
    if not ((doc >= 1).all() and (corpus >= doc).all()):
        return None
    return cells[0::3], doc, corpus


def _read_body(stream: IO[str]):
    """The (words, doc, corpus) columns of the rows after the header line."""
    words: list[str] = []
    docs: list[np.ndarray] = [np.zeros(0, np.int64)]
    corpora: list[np.ndarray] = [np.zeros(0, np.int64)]
    seen: set[str] = set()
    line_no = 2
    while chunk := stream.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += stream.readline()
            if not chunk.endswith("\n"):  # the last line, without its newline
                chunk += "\n"
        parsed = _parse_chunk(chunk)
        if parsed is not None:
            size = len(seen)
            seen.update(parsed[0])
            if len(seen) != size + len(parsed[0]):
                # A repeated word. Restore `seen` to the words before this
                # chunk, so that the row loop finds the first repeat.
                seen = set(words)
                parsed = None
        if parsed is None:
            parsed = _parse_rows(chunk.split("\n")[:-1], line_no, seen)
        words += parsed[0]
        docs.append(parsed[1])
        corpora.append(parsed[2])
        line_no += chunk.count("\n")
    return words, np.concatenate(docs), np.concatenate(corpora)


def _in_canonical_order(words: list[str], doc: np.ndarray, corpus: np.ndarray) -> bool:
    """Whether the rows, of distinct words, are in canonical order."""
    doc_step, corpus_step = np.diff(doc), np.diff(corpus)
    if (doc_step > 0).any() or ((doc_step == 0) & (corpus_step > 0)).any():
        return False
    tie = ((doc_step == 0) & (corpus_step == 0)).tolist()
    return all(map(str.__lt__, compress(words, tie), compress(islice(words, 1, None), tie)))


def deserialize(stream: IO[str]) -> Dictionary:
    """Read a dictionary file; malformed content fails with its line number.

    The body is read in chunks and each chunk is checked in bulk; a chunk
    that fails any check is parsed again row by row, which finds the first
    bad line and reports it. Rows in canonical order, as `serialize` writes
    them, are kept as read; rows in any other order are sorted. Counts
    must fit in a signed 64-bit integer.
    """
    header = stream.readline()
    if not header:
        raise DictionaryFormatError(0, "empty file (missing header)")
    header = header.rstrip("\n")
    m = _HEADER_RE.match(header)
    if not m:
        raise DictionaryFormatError(1, f"bad header: {header!r}")
    provenance = Provenance(corpus_id=m.group(3) or "",
                            config_hash=m.group(2),
                            threshold=int(m.group(1)))
    columns = _read_body(stream)
    if not _in_canonical_order(*columns):
        columns = _canonical(*columns)
    return Dictionary._of_columns(*columns, provenance)


def load(path) -> Dictionary:
    with open(path, encoding="utf-8") as f:
        return deserialize(f)


def save(d: Dictionary, path) -> None:
    """Write `d` to `path` through a temporary file in the same directory,
    so a write that fails part-way leaves any previous file intact."""
    with atomic_open(path) as f:
        serialize(d, f)
