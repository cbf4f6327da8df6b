"""Document-frequency dictionaries built from processed token lists.

Entries are ordered by the number of documents containing the word
(descending), then total corpus occurrences (descending), then the word
itself, which makes serialisation and all fragment analyses
deterministic. A word occurring several times in one document counts
once toward its document count.

A `Dictionary` is made in three places only, each of which hands its
constructor columns already in canonical order: `build` counts tokens,
`prune` keeps a prefix of a dictionary, and `load` reads a dictionary
file, checked in bulk with a line number for the first bad row.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, NoReturn

import numpy as np

from .atomic import atomic_open
from .config import InputError

# Characters `deserialize` reads at a time; each chunk is then extended to
# the end of its last line. Reading the whole body at once holds the text
# and all its cells at the same time: loading a 300k-row file then peaks
# at 85 MiB RSS instead of 58 MiB.
_CHUNK_CHARS = 1 << 19
# Characters of words, rounded up to whole rows, `serialize` writes at once.
_CHARS_PER_WRITE = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max
# The newline that ends a blank line: at the start, or after a newline.
_BLANK_LINE_RE = re.compile(r"(?<![^\n])\n")
# What no word of a dictionary file may hold.
_BREAK_RE = re.compile(r"[\t\n\r]")


class DictionaryFormatError(InputError):
    """A dictionary file that cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Provenance:
    """What a dictionary was built from, written in its header line: so the
    ids hold no whitespace and the threshold is not negative."""
    corpus_id: str = ""
    config_hash: str = ""
    threshold: int = 0

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")
        for name in ("corpus_id", "config_hash"):
            if re.search(r"\s", getattr(self, name)):
                raise ValueError(f"{name} must hold no whitespace, got {getattr(self, name)!r}")


class Dictionary:
    """Words in canonical order with their counts, held as three columns:
    the words as one "\\n"-joined string, which each accessor splits
    afresh, and the read-only int64 arrays `doc` and `corpus`."""

    def __init__(self, text: str, doc: np.ndarray, corpus: np.ndarray,
                 provenance: Provenance):
        """Wrap columns already in canonical order. The arrays are marked
        read-only, not copied."""
        doc.flags.writeable = corpus.flags.writeable = False
        self._text, self.doc, self.corpus = text, doc, corpus
        self.provenance = provenance

    def __len__(self) -> int:
        return len(self.doc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dictionary)
                and self._text == other._text
                and np.array_equal(self.doc, other.doc)
                and np.array_equal(self.corpus, other.corpus)
                and self.provenance == other.provenance)

    def words(self) -> list[str]:
        return self._text.split("\n") if self._text else []

    def ranks(self) -> dict[str, int]:
        """word -> 1-based rank in canonical order, built afresh on each call."""
        return dict(zip(self.words(), range(1, len(self) + 1)))


def _canonical(words: list[str], doc: np.ndarray, corpus: np.ndarray):
    """The three columns in canonical order, the words joined by "\\n":
    sorted by word, then stably on descending doc and corpus counts."""
    by_word = np.array(sorted(range(len(words)), key=words.__getitem__), dtype=np.intp)
    order = by_word[np.lexsort((-corpus[by_word], -doc[by_word]))]
    return "\n".join(map(words.__getitem__, order.tolist())), doc[order], corpus[order]


def build(
    token_lists: Iterable[tuple[str, list[str]]],
    corpus_id: str = "",
    config_hash: str = "",
) -> Dictionary:
    """Count doc/corpus frequencies over (doc_id, tokens) pairs. A token
    that is empty or holds a tab or a line break, "\\r" too, raises
    ValueError: a dictionary file cannot hold it."""
    doc_counts: Counter = Counter()
    corpus_counts: Counter = Counter()
    for _, tokens in token_lists:
        corpus_counts.update(tokens)
        doc_counts.update(set(tokens))
    if "" in corpus_counts or _BREAK_RE.search("".join(corpus_counts)):
        word = next(w for w in corpus_counts if not w or _BREAK_RE.search(w))
        raise ValueError(f"word {word!r} is empty or holds a tab or line break")
    words = list(corpus_counts)
    doc = np.fromiter(map(doc_counts.__getitem__, words), np.int64, len(words))
    corpus = np.fromiter(corpus_counts.values(), np.int64, len(words))
    # Freeing the counts now keeps them from sitting under the sort and the join.
    del doc_counts, corpus_counts
    provenance = Provenance(corpus_id, config_hash, threshold=0)
    return Dictionary(*_canonical(words, doc, corpus), provenance)


def prune(d: Dictionary, threshold: int) -> Dictionary:
    """Keep entries whose doc_count strictly exceeds `threshold`."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    # Doc counts never increase along the canonical order, so the kept
    # entries are a prefix of it.
    keep = int(np.count_nonzero(d.doc > threshold))
    prov = Provenance(d.provenance.corpus_id, d.provenance.config_hash,
                      max(threshold, d.provenance.threshold))
    text = "\n".join(d._text.split("\n", keep)[:keep])
    return Dictionary(text, d.doc[:keep], d.corpus[:keep], prov)


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
    text, start, i = d._text, 0, 0
    while start < len(text):
        end = text.find("\n", start + _CHARS_PER_WRITE)
        end = len(text) if end < 0 else end
        words = text[start:end].split("\n")
        j = i + len(words)
        stream.write("".join([f"{w}\t{dc}\t{cc}\n" for w, dc, cc in
                              zip(words, d.doc[i:j].tolist(), d.corpus[i:j].tolist())]))
        start, i = end + 1, j


def _raise_first_error(lines: list[str], line_no: int, seen: set[str]) -> NoReturn:
    """Raise the error of the first bad row of `lines`, the first of them
    line `line_no`, where `seen` holds the words of the rows before them."""
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
    raise AssertionError("a chunk failed the bulk checks but holds no bad row")


def _parse_chunk(chunk: str):
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


def _word_hashes(words: list[str]) -> np.ndarray:
    """One int64 per word, equal for equal words."""
    return np.fromiter(map(hash, words), np.int64, len(words))


def _read_body(stream: IO[str]):
    """The (text, doc, corpus) columns of the rows after the header line,
    sorted into canonical order if they are not in it."""
    texts: list[str] = []
    docs: list[np.ndarray] = [np.zeros(0, np.int64)]
    corpora: list[np.ndarray] = [np.zeros(0, np.int64)]
    hashes = docs[0]
    last = ([], docs[0], corpora[0])  # the last row so far, as columns
    in_order = True
    line_no = 2
    while chunk := stream.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += stream.readline()
            if not chunk.endswith("\n"):  # the last line, without its newline
                chunk += "\n"
        parsed = _parse_chunk(chunk)
        if parsed is not None:
            hashes = np.concatenate((hashes, np.sort(_word_hashes(parsed[0]))))
            hashes.sort(kind="stable")  # merges the two sorted runs in linear time
        if parsed is None or (hashes[1:] == hashes[:-1]).any():  # a bad row, or a hash clash
            prior = set("\n".join(texts).split("\n"))
            if parsed is None or len(prior.union(parsed[0])) < len(prior) + len(parsed[0]):
                _raise_first_error(chunk.split("\n")[:-1], line_no, prior)
        words, doc, corpus = parsed
        line_no += chunk.count("\n")
        if not words:
            continue
        in_order = in_order and _in_canonical_order(
            last[0] + words, np.concatenate((last[1], doc)), np.concatenate((last[2], corpus)))
        last = (words[-1:], doc[-1:], corpus[-1:])
        texts.append("\n".join(words))
        docs.append(doc)
        corpora.append(corpus)
    del hashes  # joining the columns while they were held raised peak RSS by 3 MiB
    columns = "\n".join(texts), np.concatenate(docs), np.concatenate(corpora)
    return columns if in_order else _canonical(columns[0].split("\n"), *columns[1:])


def _in_canonical_order(words: list[str], doc: np.ndarray, corpus: np.ndarray) -> bool:
    """Whether the rows, of distinct words, are in canonical order."""
    doc_step, corpus_step = np.diff(doc), np.diff(corpus)
    if (doc_step > 0).any() or ((doc_step == 0) & (corpus_step > 0)).any():
        return False
    # Runs of rows whose counts all tie must hold their words in order;
    # run k spans rows edges[2k] to edges[2k + 1], both included.
    tie = (doc_step == 0) & (corpus_step == 0)
    edges = np.flatnonzero(np.diff(tie, prepend=False, append=False))
    runs = map(slice, edges[0::2].tolist(), (edges[1::2] + 1).tolist())
    return all(run == sorted(run) for run in map(words.__getitem__, runs))


def deserialize(stream: IO[str]) -> Dictionary:
    """Read a dictionary file; malformed content fails with its line number.

    The body is read in chunks and each chunk is checked in bulk; a chunk
    that fails any check holds a bad row, and a row loop only finds the
    first one and reports it. Rows in canonical order, as `serialize` writes
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
    return Dictionary(*_read_body(stream), provenance)


def load(path) -> Dictionary:
    with open(path, encoding="utf-8") as f:
        return deserialize(f)


def save(d: Dictionary, path) -> None:
    """Write `d` to `path` through a temporary file in the same directory,
    so a write that fails part-way leaves any previous file intact."""
    with atomic_open(path) as f:
        serialize(d, f)
