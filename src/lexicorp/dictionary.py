"""Document-frequency dictionaries built from processed token lists.

Entries are ordered by the number of documents containing the word
(descending), then total corpus occurrences (descending), then the word
itself, which makes serialisation and all fragment analyses
deterministic. A word occurring several times in one document counts
once toward its document count.

A `Dictionary` is made in three places only, each of which hands its
constructor columns already in canonical order: `build` counts tokens,
`prune` keeps a prefix of a dictionary, and `load` reads a dictionary
file: in bulk for rows as `serialize` writes them, row by row for any
other, with a line number for the first bad row.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .atomic import atomic_open
from .config import InputError, open_input

# Characters `deserialize` reads at a time; each chunk is then extended to
# the end of its last line. A chunk's bytes, masks and index arrays are
# freed before the next is read, so the size sets the peak: loading a
# 300k-row file peaks at 47 MiB RSS with 2**17, 57 MiB with 2**19 and
# 82 MiB with the whole body at once (Linux x86-64, CPython 3.11, numpy
# 2.4), and the larger sizes are no faster; 2**16 peaks at 46 MiB, 4% slower.
_CHUNK_CHARS = 1 << 17
# Characters of words, rounded up to whole rows, `serialize` writes at once.
_CHARS_PER_WRITE = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max
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


def _canonical(words: list[str], doc: np.ndarray, corpus: np.ndarray):
    """The three columns in canonical order, the words joined by "\\n":
    sorted by word, then stably on descending doc and corpus counts."""
    by_word = np.array(sorted(range(len(words)), key=words.__getitem__), dtype=np.intp)
    order = by_word[np.lexsort((-corpus[by_word], -doc[by_word]))]
    return "\n".join(map(words.__getitem__, order.tolist())), doc[order], corpus[order]


def build(
    token_lists: Iterable[list[str]],
    corpus_id: str = "",
    config_hash: str = "",
) -> Dictionary:
    """Count doc/corpus frequencies over the token lists of the documents.
    A token that is empty or holds a tab or a line break, "\\r" too,
    raises ValueError: a dictionary file cannot hold it."""
    doc_counts: Counter = Counter()
    corpus_counts: Counter = Counter()
    for tokens in token_lists:
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
    text = d._text if keep == len(d) else d._text[:_rows_end(d._text, keep)]
    return Dictionary(text, d.doc[:keep], d.corpus[:keep], prov)


def _rows_end(text: str, n: int) -> int:
    """Where the first n "\\n"-joined rows of `text` end (n below their
    number): at its n-th "\\n", 0 if n is 0. `str.count` skips blocks of
    2**16 characters, then halves the one holding it: no object per row."""
    start, width = 0, 1 << 16
    while (found := text.count("\n", start, start + width)) < n:
        n, start = n - found, start + width
    while width > 1:
        width //= 2
        if (found := text.count("\n", start, start + width)) < n:
            n, start = n - found, start + width
    return start


_HEADER_RE = re.compile(
    r"#lexicorp-dict v1 threshold=(\d+) config=(\S*)(?: corpus=(\S*))?\s*$"
)


def serialize(d: Dictionary, stream: IO[str]) -> None:
    """Write the interchange format: header line, then one entry per line.

    A word holding "\\r" raises ValueError, as in `build`: `load` would
    read it as a line break. Only `deserialize` of a stream not in text
    mode, such as a StringIO, makes such a word.
    """
    if "\r" in d._text:
        word = next(w for w in d.words() if "\r" in w)
        raise ValueError(f"word {word!r} is empty or holds a tab or line break")
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


def _parse_lines(chunk: str, line_no: int):
    """Read `chunk`, whole lines each ending in "\\n", the first of them
    line `line_no`, row by row up to its first bad row, with the counts read
    by the rules of int(). Returns the (text, doc, corpus) columns of the
    rows before that row, the numbers of the blank lines before it, which
    are skipped, and its error, or None if no row is bad. Repeated words
    are not checked here."""
    words, counts, blank_lines, error = [], [], [], None
    try:
        for line_no, line in enumerate(chunk.split("\n")[:-1], line_no):
            if not line:
                blank_lines.append(line_no)
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
            words.append(word)
            counts.append((doc_count, corpus_count))
    except DictionaryFormatError as e:
        error = e
    doc, corpus = np.array(counts, np.int64).reshape(-1, 2).T
    return ("\n".join(words), doc, corpus), blank_lines, error


def _parse_chunk(chunk: str):
    """The (text, doc, corpus) columns of `chunk`, whole lines each ending
    in "\\n", if every line is a row as `serialize` writes it: a word that
    is not empty, then two counts of 1 to 18 ASCII digits with 1 <= doc <=
    corpus; else None. `text` holds the words joined by "\\n"; repeats are
    not checked. The counts are read from the chunk's UTF-8 bytes by
    `_digit_counts`, and the words decoded from them in one call."""
    code = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
    # UTF-8 keeps "\t" and "\n" as single bytes found nowhere else, so
    # every line holds three cells exactly when the tabs and newlines come
    # as tab, tab, newline throughout (a blank line breaks that pattern);
    # row i's are then at seps[i].
    seps = np.flatnonzero((code == 9) | (code == 10))
    if len(seps) % 3 or (code[seps].reshape(-1, 3) != (9, 9, 10)).any():
        return None
    seps = seps.reshape(-1, 3)
    # Each row's word, with the newline before it (byte -1 for the first
    # row), alternates with the bytes from its first tab to its newline.
    spans = np.diff(seps[:, ::2].ravel(), prepend=-1)
    if (spans[::2] == 1).any():  # a newline, then a tab: an empty word
        return None
    counts = _digit_counts(code, seps)
    if counts is None or not ((counts[0] >= 1).all() and (counts[1] >= counts[0]).all()):
        return None
    doc, corpus = counts
    keep = np.repeat(np.tile((True, False), len(seps)), spans)[1:]
    del seps, spans
    return str(code[:-1][keep], "utf-8", "surrogatepass"), doc, corpus


def _digit_counts(code: np.ndarray, seps: np.ndarray):
    """The doc and corpus counts of the rows whose tabs and newline are at
    `seps`, as the rows of one array, if every count cell is 1 to 18 ASCII
    digits, which keeps it below 10**18 and inside int64; else None."""
    widths = np.diff(seps, axis=1)
    widths -= 1
    if widths.size and (widths.min() < 1 or widths.max() > 18):
        return None
    width = widths.max(initial=0)
    at = seps[:, 1:] - width  # `width` bytes before each cell's end
    values = np.zeros(widths.shape, np.int64)
    digits = np.empty(widths.shape, np.uint8)
    # Horner's rule over the cells aligned at their ends: step k reads the
    # k-th byte from each cell's end, or a leading zero before its start.
    for k in range(width, 0, -1):
        np.take(code, at, out=digits, mode="clip")
        digits -= 48  # wraps every byte that is not a digit above 9
        digits *= widths >= k
        if digits.max() > 9:
            return None
        values *= 10
        values += digits
        at += 1
    return values.T


def _word_hashes(words: list[str]) -> np.ndarray:
    """One int64 per word, equal for equal words."""
    return np.fromiter(map(hash, words), np.int64, len(words))


def _raise_first_repeat(texts: list[str], hashes: np.ndarray, blank_lines: list[int]) -> None:
    """Raise the error of the first row, in file order, whose word an
    earlier row holds, if there is one. `texts` holds the words of the rows
    read so far, "\\n"-joined, `hashes` their hashes, which this sorts, and
    `blank_lines` the numbers of the blank lines among them, in order."""
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return
    # A hash clash: compare the words themselves, so two distinct words
    # that share a hash are not taken for a repeat.
    seen: set[str] = set()
    for row, word in enumerate(chain.from_iterable(t.split("\n") for t in texts)):
        if word in seen:
            line_no = row + 2
            for blank in blank_lines:  # each blank line at or before the row moves it on
                line_no += blank <= line_no
            raise DictionaryFormatError(line_no, f"duplicate word {word!r}")
        seen.add(word)


def _read_body(stream: IO[str]):
    """The (text, doc, corpus) columns of the rows after the header line,
    sorted into canonical order if they are not in it.

    Each chunk is read by `_parse_chunk` or, if that refuses it, by
    `_parse_lines`; the hashes and counts of either's rows go to one
    buffer per column, and the counts are returned as views of theirs.
    Repeats are looked for once, by one sort of the hashes of all words:
    at the end, or at the first bad row, before its error is raised, since
    a repeat before it comes first.
    """
    texts: list[str] = []
    # One buffer each: freed, its memory goes back to the system; the count buffers become columns.
    hashes, docs, corpora = array("q"), array("q"), array("q")
    blank_lines: list[int] = []  # the numbers of the blank lines, for a repeat's line number
    last_word: list[str] = []  # the word of the last row so far, if any
    in_order = True
    line_no, error = 2, None
    while error is None and (chunk := stream.read(_CHUNK_CHARS)):
        if not chunk.endswith("\n"):
            chunk += stream.readline()
            if not chunk.endswith("\n"):  # the last line, without its newline
                chunk += "\n"
        parsed = _parse_chunk(chunk)
        if parsed is None:
            parsed, blanks, error = _parse_lines(chunk, line_no)
            blank_lines += blanks
        text, doc, corpus = parsed
        line_no += chunk.count("\n")
        if not len(doc):
            continue
        words = text.split("\n")
        hashes.frombytes(_word_hashes(words).tobytes())
        in_order = in_order and _in_canonical_order(
            last_word + words, np.concatenate((docs[-1:], doc)), np.concatenate((corpora[-1:], corpus)))
        last_word = words[-1:]
        texts.append(text)
        docs.frombytes(doc.tobytes())
        corpora.frombytes(corpus.tobytes())
    _raise_first_repeat(texts, np.frombuffer(hashes, np.int64), blank_lines)
    if error is not None:
        raise error
    del hashes  # joining the words while the hashes were held raised peak RSS by 3 MiB
    text = "\n".join(texts)
    del texts  # before a sort, which splits the text again
    doc, corpus = np.frombuffer(docs, np.int64), np.frombuffer(corpora, np.int64)
    return (text, doc, corpus) if in_order else _canonical(text.split("\n"), doc, corpus)


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

    The body is read in chunks. A chunk of rows as `serialize` writes
    them is read in bulk from its bytes; any other chunk is read row by
    row by the rules of int(), which skips blank lines and stops at the
    first bad row. A repeated word is found by one sort of the hashes of
    all words, at the end or at the first bad row. Rows in canonical
    order, as `serialize` writes them, are kept as read; rows in any other
    order are sorted. Counts must fit in a signed 64-bit integer.
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
    """Read the dictionary file at `path` through `open_input`."""
    with open_input(path, "dictionary") as f:
        return deserialize(f)


def save(d: Dictionary, path) -> None:
    """Write `d` to `path` through a temporary file in the same directory,
    so a write that fails part-way leaves any previous file intact."""
    with atomic_open(path) as f:
        serialize(d, f)
