import gc
import io
import os
import re
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictionary_reference as ref
from conftest import contents, dictionary_of, rows_of
from lexicorp import dictionary as dct
from lexicorp.dictionary import DictionaryFormatError, Provenance


def naive_recount(token_lists):
    """Independent oracle: per-word counts via plain dicts, no shortcuts."""
    doc_counts, corpus_counts = {}, {}
    for tokens in token_lists:
        for t in tokens:
            corpus_counts[t] = corpus_counts.get(t, 0) + 1
        for t in sorted(set(tokens)):
            doc_counts[t] = doc_counts.get(t, 0) + 1
    return doc_counts, corpus_counts


class TestBuild:
    def test_two_documents(self):
        d = dct.build([["a", "b", "a"], ["a"]])
        assert rows_of(d) == [("a", 2, 3), ("b", 1, 1)]

    def test_empty_stream(self):
        assert len(dct.build([])) == 0

    def test_single_empty_token_list(self):
        assert len(dct.build([[]])) == 0

    def test_ordering(self):
        d = dct.build([
            ["low", "high", "mid"],
            ["high", "mid", "mid"],
            ["high"],
        ])
        # high: doc 3; mid: doc 2, corpus 3; low: doc 1
        assert d.words() == ["high", "mid", "low"]

    def test_tie_break_corpus_count_then_word(self):
        d = dct.build([["b", "b", "a", "z"], ["a", "b", "z"]])
        # all have doc_count 2; b corpus 3 first, then a and z alphabetical
        assert d.words() == ["b", "a", "z"]


class TestPrune:
    def dictionary(self, counts, provenance=Provenance()):
        return dictionary_of([(f"w{i}", c, c) for i, c in enumerate(counts)], provenance)

    def test_strict_threshold(self):
        d = self.dictionary([12, 10, 3])
        assert dct.prune(d, 10).doc.tolist() == [12]

    def test_threshold_zero_is_identity(self):
        d = self.dictionary([5, 1, 2])
        assert contents(dct.prune(d, 0)) == contents(d)

    def test_threshold_recorded(self):
        d = self.dictionary([12, 10], Provenance("c", "h", 0))
        assert dct.prune(d, 10).provenance.threshold == 10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            dct.prune(dictionary_of([]), -1)

    def test_composition(self):
        d = self.dictionary(range(1, 30))
        assert contents(dct.prune(dct.prune(d, 7), 15)) == contents(dct.prune(d, 15))
        assert contents(dct.prune(dct.prune(d, 15), 7)) == contents(dct.prune(d, 15))


class TestSerialization:
    def roundtrip(self, d):
        buf = io.StringIO()
        dct.serialize(d, buf)
        return dct.deserialize(io.StringIO(buf.getvalue()))

    def test_round_trip(self):
        d = dictionary_of([("a", 3, 9), ("b", 2, 2), ("c", 1, 1)], Provenance("corp1", "cfg1", 0))
        assert contents(self.roundtrip(d)) == contents(d)

    def test_empty_dictionary(self):
        d = dictionary_of([], Provenance("x", "y", 10))
        got = self.roundtrip(d)
        assert len(got) == 0 and got.provenance == d.provenance

    def test_non_integer_count(self):
        text = "#lexicorp-dict v1 threshold=0 config=abc\nword\tx\t3\n"
        with pytest.raises(DictionaryFormatError) as err:
            dct.deserialize(io.StringIO(text))
        assert err.value.line_no == 2

    def test_bad_header(self):
        with pytest.raises(DictionaryFormatError):
            dct.deserialize(io.StringIO("not a dictionary\n"))

    def test_duplicate_word(self):
        text = "#lexicorp-dict v1 threshold=0 config=c\na\t1\t1\na\t1\t2\n"
        with pytest.raises(DictionaryFormatError) as err:
            dct.deserialize(io.StringIO(text))
        assert err.value.line_no == 3

    def test_count_invariant_enforced(self):
        text = "#lexicorp-dict v1 threshold=0 config=c\na\t5\t3\n"
        with pytest.raises(DictionaryFormatError):
            dct.deserialize(io.StringIO(text))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.tsv"
        dct.save(dct.build([["a", "b"]]), path)
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]
        before = path.read_bytes()

        def fail_mid_write(d, stream):
            stream.write("#lexicorp-dict v1 threshold=0 config=\nc\t1\t1\n")
            raise OSError("disk full")

        monkeypatch.setattr(dct, "serialize", fail_mid_write)
        with pytest.raises(OSError, match="disk full"):
            dct.save(dct.build([["c"]]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]


TOKEN = st.text(alphabet="abcdefg", min_size=1, max_size=3)
TOKEN_LISTS = st.lists(st.lists(TOKEN, max_size=8), max_size=12)


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS)
def test_counts_match_naive_recount(token_lists):
    d = dct.build(token_lists)
    doc_counts, corpus_counts = naive_recount(token_lists)
    assert dict(zip(d.words(), d.doc.tolist())) == doc_counts
    assert dict(zip(d.words(), d.corpus.tolist())) == corpus_counts
    total_tokens = sum(map(len, token_lists))
    assert d.corpus.sum() == total_tokens
    n_docs = len(token_lists)
    assert all(corpus >= doc >= 1 for _, doc, corpus in rows_of(d))
    assert all(doc <= n_docs for doc in d.doc.tolist())


@settings(max_examples=100, deadline=None)
@given(TOKEN_LISTS)
def test_serialize_round_trip_property(token_lists):
    d = dct.build(token_lists, corpus_id="cid", config_hash="ch")
    buf = io.StringIO()
    dct.serialize(d, buf)
    assert contents(dct.deserialize(io.StringIO(buf.getvalue()))) == contents(d)


# Every row a dictionary file cannot hold is refused with its line number.
# The file is written in binary, so text mode reads "\r" as a line break.

@pytest.mark.parametrize("rows, line_no", [
    ("a\t0\t0\n", 2),
    ("a\t-1\t3\n", 2),
    ("a\t2\t1\n", 2),
    (f"a\t1\t{2**63}\n", 2),
    ("\t1\t1\n", 2),
    ("a\tb\t1\t1\n", 2),
    ("a\nb\t1\t1\n", 2),
    ("a\rb\t1\t1\n", 2),
    ("a\t1\t1\nb\t2\t2\na\t3\t3\n", 4),
    ("a\t1.5\t2.9\n", 2),
    ("a\tTrue\tTrue\n", 2),
    ("a\t1\t2.0\n", 2),
    ("a\t1\t\n", 2),
], ids=["doc-0", "doc-negative", "doc-above-corpus", "corpus-2**63", "empty-word",
        "tab-in-word", "lf-in-word", "cr-in-word", "repeated-word",
        "float-counts", "bool-counts", "float-corpus", "empty-count"])
def test_load_refuses_rows_a_file_cannot_hold(tmp_path, rows, line_no):
    path = tmp_path / "d.tsv"
    path.write_bytes(("#lexicorp-dict v1 threshold=0 config=c\n" + rows).encode("utf-8"))
    with pytest.raises(DictionaryFormatError) as err:
        dct.load(path)
    assert err.value.line_no == line_no


def _built():
    return dct.build([["a", "b", "a"], ["a"]])


def _pruned():
    return dct.prune(_built(), 1)


def _loaded():
    return dictionary_of([("b", 1, 1), ("a", 2, 3)])


@pytest.mark.parametrize("make", [_built, _pruned, _loaded], ids=["build", "prune", "load"])
def test_every_maker_holds_read_only_int64_columns(make):
    d = make()
    for column in (d.doc, d.corpus):
        assert column.dtype == np.int64 and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 7


def test_prune_copies_no_column():
    d = _built()
    pruned = dct.prune(d, 1)
    assert rows_of(pruned) == [("a", 2, 3)]
    assert np.shares_memory(pruned.doc, d.doc) and np.shares_memory(pruned.corpus, d.corpus)


@pytest.mark.parametrize("tokens,word", [
    (["a\tb"], "a\tb"), (["", "c"], ""), (["c", "d\r"], "d\r"), (["e\n"], "e\n"),
])
def test_build_refuses_words_a_file_cannot_hold(tokens, word):
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        dct.build([tokens])


@pytest.mark.parametrize("fields", [
    {"threshold": -1},
    {"config_hash": "h x"},
    {"config_hash": "h\tx"},
    {"corpus_id": "c\n"},
    {"corpus_id": "\x85"},
    {"corpus_id": "a b", "config_hash": "h"},
])
def test_provenance_refuses_what_the_header_cannot_hold(fields):
    with pytest.raises(ValueError):
        Provenance(**fields)


# Any word (lone surrogates aside, which UTF-8 cannot encode), and counts
# on both sides of each bound: doc 1, corpus >= doc and 2**63 - 1.
SAVED_ROW = st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.sampled_from([1, 1, 2, 3, 2**63 - 2, 2**63 - 1, 0]),
    st.sampled_from([0, 0, 1, 2, -1]),
).map(lambda r: (r[0], r[1], r[1] + r[2]))
SAVED_ID = st.text("ab1=._-", max_size=3) | st.text("a \t\r\x85\u3000", max_size=3)


@settings(max_examples=1000, deadline=None)
@given(st.lists(SAVED_ROW, max_size=5), SAVED_ID, SAVED_ID, st.integers(-2, 10**20))
def test_whatever_save_writes_loads_back_equal(rows, corpus_id, config_hash, threshold):
    try:
        d = dictionary_of(rows, Provenance(corpus_id, config_hash, threshold))
    except ValueError:  # DictionaryFormatError too
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.tsv")
        dct.save(d, path)
        assert contents(dct.load(path)) == contents(d)


# Differential test against the per-line reader in dictionary_reference.

GOOD_HEADERS = [
    "#lexicorp-dict v1 threshold=0 config=abc",
    "#lexicorp-dict v1 threshold=10 config=c corpus=x1 ",
    "#lexicorp-dict v1 threshold=٣ config=",
]
HEADER = st.sampled_from(GOOD_HEADERS * 3 + ["#lexicorp-dict v2 threshold=0 config=c", ""])
ENTRY_WORD = st.text(alphabet="abé İ中\r\x85", min_size=1, max_size=3)
COUNT_TEXT = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["+5", " 5", "5 ", "1_0", "_1", "1__0", "x", "", "٣", "1.0",
                     " 7", "5\x1c", "5\x00", "0x1", "1e3", "--1", "+-1", "-0", "+0", "٣٣",
                     "9223372036854775807", "9223372036854775808"]),
    # 19 and 20 digits, on both sides of 2**63 - 1
    st.integers(10**18, 10**20 - 1).map(str),
)
JUNK_ROW = st.one_of(
    st.tuples(st.text(alphabet="aé ", max_size=2), COUNT_TEXT, COUNT_TEXT).map("\t".join),
    st.lists(st.text(alphabet="a1", max_size=2), min_size=1, max_size=5).map("\t".join),
    st.just(""),
)


@st.composite
def dictionary_texts(draw):
    """A header (or nothing), then valid rows in canonical or arbitrary order
    with blank, duplicate and malformed rows mixed in, under LF or CRLF."""
    entries = draw(st.lists(st.tuples(ENTRY_WORD, st.integers(1, 4), st.integers(0, 2)),
                            max_size=10, unique_by=lambda e: e[0]))
    entries = [(w, d, d + extra) for w, d, extra in entries]
    if draw(st.booleans()):
        entries.sort(key=lambda e: (-e[1], -e[2], e[0]))
    rows = [f"{w}\t{d}\t{c}" for w, d, c in entries]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            rows.insert(at, draw(st.sampled_from(rows)))  # a duplicate word
        else:
            rows.insert(at, draw(JUNK_ROW))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([draw(HEADER)] + rows)
    if draw(st.booleans()):
        text += eol
    return text


def _stream(text, as_file):
    """`text` as a StringIO, or as a file opened in text mode reads it."""
    if as_file:
        return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    return io.StringIO(text)


def _outcome(read, text, as_file):
    """("ok", entry tuples, provenance) or ("error", line number, message)."""
    try:
        got = read(_stream(text, as_file))
    except DictionaryFormatError as e:
        return ("error", e.line_no, str(e))
    if isinstance(got, tuple):
        return ("ok", [(e.word, e.doc_count, e.corpus_count) for e in got[0]], got[1])
    return ("ok", rows_of(got), got.provenance)


def _reference_outcome(text, as_file):
    """The reference reader's outcome, where a row it accepts with a count
    above 2**63 - 1 is instead the error of that row, as in `deserialize`:
    the range is checked after the count invariants and before repeats."""
    want = _outcome(ref.deserialize, text, as_file)
    last = want[1] if want[0] == "error" else float("inf")
    for line_no, line in enumerate(_stream(text, as_file), 1):
        if line_no == 1 or line_no > last:
            continue
        line = line.rstrip("\n")
        cells = line.split("\t")
        try:
            doc_count, corpus_count = int(cells[1]), int(cells[2])
        except (IndexError, ValueError):
            continue
        if len(cells) == 3 and cells[0] and 1 <= doc_count <= corpus_count and corpus_count >= 2**63:
            return ("error", line_no, f"line {line_no}: count out of range (above 2**63 - 1) in {line!r}")
    return want


@settings(max_examples=600, deadline=None)
@given(dictionary_texts(), st.booleans())
def test_deserialize_matches_reference(text, as_file):
    want = _reference_outcome(text, as_file)
    assert _outcome(dct.deserialize, text, as_file) == want
    if want[0] == "ok":
        d = dct.deserialize(_stream(text, as_file))
        for threshold in range(6):
            assert rows_of(dct.prune(d, threshold)) == [
                row for row in rows_of(d) if row[1] > threshold]


@pytest.mark.parametrize("chunk_chars", [1, 7, 64])
def test_deserialize_matches_reference_in_small_chunks(chunk_chars):
    # Puts errors, repeats, blank lines, CRLF and a missing final newline
    # on chunk boundaries.
    with mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars):
        test_deserialize_matches_reference()


BLANK_LINE_BODIES = [
    "\na\t2\t2\nb\t1\t1\n",  # at the start
    "a\t2\t2\nb\t1\t1\n\n",  # at the end
    "a\t2\t2\n\n\n\nb\t1\t1\n\n\n",  # repeated
    "\n\n\n",
    "b\t1\t1\n\na\t2\t2\n",  # out of order
    "a\t2\t2\n\n\nb\t0\t1\n",  # an invalid row after them
    "a\t2\t2\n\na\t1\t1\n",  # a repeat after them
    "a\t2\t2\n\n\tb\t1\n",  # an empty word after them
    "a\t2\t2\n\nb\t1\n",  # two cells after them
]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("body", BLANK_LINE_BODIES)
def test_blank_lines_on_chunk_boundaries_match_reference(body, eol):
    text = ("#lexicorp-dict v1 threshold=0 config=c\n" + body).replace("\n", eol)
    for chunk_chars in [*range(1, len(text)), 1 << 19]:
        with mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars):
            for as_file in (False, True):
                assert (_outcome(dct.deserialize, text, as_file)
                        == _outcome(ref.deserialize, text, as_file)), (chunk_chars, as_file)


def _same_hash(words):
    return np.zeros(len(words), np.int64)


@pytest.mark.parametrize("chunk_chars", [1 << 19, 1, 7, 64])
def test_deserialize_matches_reference_with_every_hash_clashing(chunk_chars):
    # Every row clashes with every other, so repeats are told apart from
    # clashes by the words alone.
    with mock.patch.object(dct, "_word_hashes", _same_hash), \
            mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars):
        test_deserialize_matches_reference()


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("body", BLANK_LINE_BODIES)
def test_blank_lines_match_reference_with_every_hash_clashing(body, eol):
    with mock.patch.object(dct, "_word_hashes", _same_hash):
        test_blank_lines_on_chunk_boundaries_match_reference(body, eol)


@pytest.mark.parametrize("clash", [False, True])
@pytest.mark.parametrize("n_rows, chunk_chars", [(200, 64), (60_000, 1 << 19)])
def test_repeat_in_a_later_chunk_matches_reference(n_rows, chunk_chars, clash):
    rows = [f"w{i:05d}\t{n_rows - i}\t{n_rows - i}\n" for i in range(n_rows)]
    rows.insert(n_rows - 10, "w00010\t5\t5\n")
    text = "#lexicorp-dict v1 threshold=0 config=c\n" + "".join(rows)
    assert len(text) > 2 * chunk_chars  # the repeat comes chunks after the first
    with mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(dct, "_word_hashes", _same_hash if clash else dct._word_hashes):
        got = _outcome(dct.deserialize, text, False)
    assert got == _outcome(ref.deserialize, text, False)
    assert got[:2] == ("error", n_rows - 8)


REPEAT_BEFORE_A_BAD_ROW = [
    ("a\t2\t2\nb\t1\t1\na\t1\t1\nc\t0\t1\n", 4),
    ("a\t2\t2\n\nb\t1\t1\n\n\na\t1\t1\n\nc\t1\n", 7),
]


@pytest.mark.parametrize("clash", [False, True])
@pytest.mark.parametrize("body, line_no", REPEAT_BEFORE_A_BAD_ROW, ids=["rows", "blank-lines"])
def test_repeat_wins_over_a_bad_row_after_it(body, line_no, clash):
    # In chunks of a line or so, the repeat comes in a chunk that passes
    # and the bad row in a later one, which fails.
    text = "#lexicorp-dict v1 threshold=0 config=c\n" + body
    want = ("error", line_no, f"line {line_no}: duplicate word 'a'")
    assert _outcome(ref.deserialize, text, False) == want
    for chunk_chars in range(1, len(text) + 1):
        with mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(dct, "_word_hashes", _same_hash if clash else dct._word_hashes):
            assert _outcome(dct.deserialize, text, False) == want, chunk_chars


# The same differential tests with the bulk path refusing every chunk, so
# that the row loop alone reads every file as the reference does.

def _row_loop_only():
    return mock.patch.object(dct, "_parse_chunk", lambda chunk: None)


@pytest.mark.parametrize("chunk_chars", [1 << 19, 7])
def test_row_loop_alone_matches_reference(chunk_chars):
    with _row_loop_only(), mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars):
        test_deserialize_matches_reference()


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("body", BLANK_LINE_BODIES)
def test_row_loop_alone_matches_reference_on_blank_lines(body, eol):
    with _row_loop_only():
        test_blank_lines_on_chunk_boundaries_match_reference(body, eol)
        test_blank_lines_match_reference_with_every_hash_clashing(body, eol)


@pytest.mark.parametrize("clash", [False, True])
def test_row_loop_alone_finds_repeats_as_the_reference(clash):
    with _row_loop_only():
        for n_rows, chunk_chars in [(200, 64), (60_000, 1 << 19)]:
            test_repeat_in_a_later_chunk_matches_reference(n_rows, chunk_chars, clash)
        for body, line_no in REPEAT_BEFORE_A_BAD_ROW:
            test_repeat_wins_over_a_bad_row_after_it(body, line_no, clash)


# Every count below 10**18 has at most 18 digits, so every chunk of a
# saved file is read in bulk, as the dictionaries of the analyse benchmark are.
SAVED_WORD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                     min_size=1, max_size=4)
SAVED_COUNTS = st.lists(st.integers(1, 10**18 - 1), min_size=2, max_size=2).map(sorted)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SAVED_WORD, SAVED_COUNTS), max_size=30, unique_by=lambda r: r[0]),
       st.sampled_from([1, 16, 1 << 17]))
def test_load_of_a_saved_dictionary_never_runs_the_row_loop(rows, chunk_chars):
    d = dictionary_of([(w, doc, corpus) for w, (doc, corpus) in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.tsv")
        dct.save(d, path)
        with mock.patch.object(dct, "_parse_lines", wraps=dct._parse_lines) as row_loop, \
                mock.patch.object(dct, "_CHUNK_CHARS", chunk_chars):
            assert contents(dct.load(path)) == contents(d)
    assert row_loop.call_count == 0


def test_load_drops_a_leading_bom(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_bytes("\ufeff#lexicorp-dict v1 threshold=3 config=c\na\t5\t7\n".encode("utf-8"))
    d = dct.load(path)
    assert rows_of(d) == [("a", 5, 7)] and d.provenance == Provenance("", "c", 3)


def test_save_refuses_a_word_load_would_split(tmp_path):
    # deserialize keeps a "\r" in a word from a stream not in text mode;
    # load would read that "\r" as a line break.
    d = dct.deserialize(io.StringIO("#lexicorp-dict v1 threshold=0 config=c\na\rb\t1\t1\n"))
    assert d.words() == ["a\rb"]
    with pytest.raises(ValueError, match=re.escape(repr("a\rb"))):
        dct.save(d, tmp_path / "d.tsv")
    assert list(tmp_path.iterdir()) == []


def test_save_makes_a_missing_directory(tmp_path):
    path = tmp_path / "a" / "b" / "d.tsv"
    dct.save(dictionary_of([("w", 2, 3)]), path)
    assert rows_of(dct.load(path)) == [("w", 2, 3)]


# Differential test of the chunk parser against the one in
# dictionary_reference, which split each chunk into one string per cell.

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
CHUNK_WORD = st.text(st.sampled_from("ab é中\r\x85\U0001f600\U0001d11e\ud800\udfff"),
                     min_size=1, max_size=3)


def _spellings(n, plain):
    """Ways to write a count that int() reads as n: its digits, with or
    without leading zeros, and unless `plain`, also what else int() reads."""
    digits = [str(n)] * 3 + ["000" + str(n)] * (n >= 0)
    if plain:
        return st.sampled_from(digits)
    return st.sampled_from(digits + [
        f"+{n}", f" {n}", f"{n} ", f"{n}\r", str(n).translate(_ARABIC_INDIC),
        "-" * (n < 0) + "_".join(str(abs(n)))])


@st.composite
def chunks(draw):
    """Rows whose counts are small, 18 to 20 digits (2**64 + 1 among them,
    which wraps to 1 in 64 bits), 0 or the doc count above the corpus count,
    spelled as plain digits or as int() also reads them, with blank and
    malformed rows mixed in."""
    plain = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        doc = draw(st.sampled_from([1] * 6 + [2, 2, 7, 12, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**64 + 1, 0]))
        corpus = doc + draw(st.sampled_from([0, 0, 0, 0, 1, 1, 1, 10**18, -1]))
        rows.append("\t".join([draw(CHUNK_WORD), draw(_spellings(doc, plain)), draw(_spellings(corpus, plain))]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        junk = st.tuples(CHUNK_WORD, COUNT_TEXT, COUNT_TEXT).map("\t".join) | JUNK_ROW
        rows.insert(draw(st.integers(0, len(rows))), draw(junk))
    return "".join(row + "\n" for row in rows)


def _parsed(parse, chunk):
    """`parse(chunk)` as (words, doc, corpus) lists, or None; and whether
    `dictionary._parse_chunk` read the counts from the bytes."""
    byte_parses = []
    real = dct._digit_counts

    def spy(code, seps):
        counts = real(code, seps)
        byte_parses.append(counts is not None)
        return counts

    with mock.patch.object(dct, "_digit_counts", spy):
        got = parse(chunk)
    if got is not None:
        words, doc, corpus = got
        assert doc.dtype == corpus.dtype == np.int64
        if isinstance(words, str):
            words = words.split("\n") if len(doc) else []
        got = words, doc.tolist(), corpus.tolist()
    return got, any(byte_parses)


def _row_loop(chunk):
    """The columns `dictionary._parse_lines` reads from `chunk` if it holds
    no bad row, else None."""
    columns, _, error = dct._parse_lines(chunk, 2)
    return None if error else columns


@settings(max_examples=1500, deadline=None)
@given(chunks())
def test_parse_chunk_matches_reference(chunk):
    # The bulk path reads a subset of the chunks the reference reads, and
    # the row loop reads all of them.
    want = _parsed(ref.parse_chunk, chunk)[0]
    assert _parsed(dct._parse_chunk, chunk)[0] in (None, want)
    assert _parsed(_row_loop, chunk)[0] == want


def test_parse_chunk_reads_a_saved_file_from_its_bytes():
    rows = [("中\U0001f600", 10**18 - 1, 10**18 - 1), ("é", 5, 7), ("a", 1, 10), ("b", 1, 1)]
    buf = io.StringIO()
    dct.serialize(dictionary_of(rows), buf)
    chunk = buf.getvalue().split("\n", 1)[1]
    got, byte_parse = _parsed(dct._parse_chunk, chunk)
    assert byte_parse
    assert got == _parsed(ref.parse_chunk, chunk)[0] == (
        [w for w, _, _ in rows], [d for _, d, _ in rows], [c for _, _, c in rows])


def test_parse_chunk_reads_a_chunk_with_one_signed_count_by_int_rules():
    chunk = "a\t3\t4\nb\t+5\t5\nc\t1\t1\n"
    assert dct._parse_chunk(chunk) is None
    assert _parsed(_row_loop, chunk)[0] == _parsed(ref.parse_chunk, chunk)[0] == (
        ["a", "b", "c"], [3, 5, 1], [4, 5, 1])


def test_count_above_int64_is_a_format_error():
    header = "#lexicorp-dict v1 threshold=0 config=c\n"
    big = 2**63
    for row, line_no in ((f"a\t1\t{big}\n", 2), (f"a\t3\t3\nb\t{big}\t{big}\n", 3),
                         ("a\t2\t99999999999999999999", 2)):
        with pytest.raises(DictionaryFormatError, match="count out of range") as err:
            dct.deserialize(io.StringIO(header + row))
        assert err.value.line_no == line_no
    d = dct.deserialize(io.StringIO(header + f"a\t1\t{big - 1}\n"))
    assert rows_of(d) == [("a", 1, big - 1)]


@settings(max_examples=100, deadline=None)
@given(TOKEN_LISTS, st.sampled_from([Provenance(), Provenance("cid", "ch", 3)]))
def test_serialize_matches_reference(token_lists, provenance):
    d = dct.build(token_lists)
    d.provenance = provenance
    want, got = io.StringIO(), io.StringIO()
    ref.serialize([ref.DictEntry(*row) for row in rows_of(d)], provenance, want)
    with mock.patch.object(dct, "_CHARS_PER_WRITE", 3):
        dct.serialize(d, got)
    assert got.getvalue() == want.getvalue()


def test_loaded_dictionary_holds_less_than_its_entries():
    rows = [(f"w{i:05d}", 50_000 - i, 50_000 - i + i % 7) for i in range(50_000)]
    text = "#lexicorp-dict v1 threshold=0 config=c\n" + "".join(
        f"{w}\t{d}\t{c}\n" for w, d, c in rows)

    def held(make):
        tracemalloc.start()
        try:
            kept = make()  # noqa: F841
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    columns = held(lambda: dct.deserialize(io.StringIO(text)))
    entries = held(lambda: [(w, int(d), int(c)) for w, d, c in
                            (line.split("\t") for line in text.splitlines()[1:])])
    assert columns < entries
    # The words are held as one string, not as a string object each.
    assert columns < sum(sys.getsizeof(w) for w, _, _ in rows)


def test_deserialize_restores_the_collector_state():
    good = "#lexicorp-dict v1 threshold=0 config=c\na\t1\t1\n"
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            for text in (good, good + "a\t1\t1\n"):
                try:
                    dct.deserialize(io.StringIO(text))
                except DictionaryFormatError:
                    pass
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _check_every_threshold(d):
    """`prune` at every threshold from 0 to one above the largest doc count
    cuts the text the reference cuts, and keeps a word per kept row.
    Returns the numbers of rows kept."""
    kept = []
    for threshold in range(int(d.doc.max(initial=0)) + 2):
        pruned = dct.prune(d, threshold)
        keep = int((d.doc > threshold).sum())
        assert pruned._text == ref.pruned_text(d._text, keep)
        assert len(pruned.words()) == len(pruned) == keep
        kept.append(keep)
    return kept


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS)
def test_prune_cuts_the_text_as_the_reference(token_lists):
    _check_every_threshold(dct.build(token_lists))


@pytest.mark.parametrize("word", [
    # Words of every width, the top one longer than a 2**16-character block.
    lambda i: "long" * (1 << 15) if i == 0 else f"w{i}" + "é中\U0001f600"[i % 3] * (i % 11),
    # 16 characters a row with its newline, so a newline ends every block.
    lambda i: f"w{i:014d}",
], ids=["widths", "aligned"])
def test_prune_cuts_a_text_of_many_blocks_as_the_reference(word):
    # Row 0 alone at the top and row 1 alone at the bottom, so that the
    # thresholds keep every row, all but one, one and none.
    rows = [(word(i), 42 if i == 0 else 1 if i == 1 else 2 + i % 40, 50) for i in range(20_002)]
    d = dictionary_of(rows)
    assert {0, 1, len(d) - 1, len(d)} <= set(_check_every_threshold(d))


@pytest.fixture(scope="module")
def paper_shaped(tmp_path_factory):
    """A canonical dictionary file of 300,000 rows in the shape of LScD: word
    `w{i:07d}`, doc count `max(1, 10**6 // rank)`, corpus count twice it."""
    path = tmp_path_factory.mktemp("paper_shaped") / "d.tsv"
    doc = np.maximum(1, 10**6 // np.arange(1, 300_001))
    with open(path, "w", encoding="utf-8") as f:
        f.write("#lexicorp-dict v1 threshold=0 config=ci\n")
        f.writelines(f"w{i:07d}\t{d}\t{2 * d}\n" for i, d in enumerate(doc.tolist()))
    return path


def _traced_peak(make):
    """What `make()` returns, and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_no_column_twice_at_its_peak(paper_shaped):
    # The counts go into one buffer per column and the words are joined
    # once; lists of chunk columns joined at the end peak at 2.03 times.
    d, peak = _traced_peak(lambda: dct.load(paper_shaped))
    held = sys.getsizeof(d._text) + d.doc.nbytes + d.corpus.nbytes
    assert peak < 1.75 * held


def test_prune_peaks_at_the_kept_text(paper_shaped):
    d = dct.load(paper_shaped)
    pruned, peak = _traced_peak(lambda: dct.prune(d, 10))
    assert len(pruned) == 90_909
    # A slice of the text, no string per row; a split and a join peak at 8.2 MiB.
    assert peak < sys.getsizeof(pruned._text) + (64 << 10)
