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
from lexicorp import dictionary as dct
from lexicorp.dictionary import DictEntry, Dictionary, DictionaryFormatError, Provenance


def naive_recount(token_lists):
    """Independent oracle: per-word counts via plain dicts, no shortcuts."""
    doc_counts, corpus_counts = {}, {}
    for _, tokens in token_lists:
        for t in tokens:
            corpus_counts[t] = corpus_counts.get(t, 0) + 1
        for t in sorted(set(tokens)):
            doc_counts[t] = doc_counts.get(t, 0) + 1
    return doc_counts, corpus_counts


class TestBuild:
    def test_two_documents(self):
        d = dct.build([("d1", ["a", "b", "a"]), ("d2", ["a"])])
        by_word = {e.word: e for e in d.entries}
        assert by_word["a"] == DictEntry("a", 2, 3)
        assert by_word["b"] == DictEntry("b", 1, 1)
        assert d.words() == ["a", "b"]

    def test_empty_stream(self):
        assert len(dct.build([])) == 0

    def test_single_empty_token_list(self):
        assert len(dct.build([("d1", [])])) == 0

    def test_ordering(self):
        d = dct.build([
            ("d1", ["low", "high", "mid"]),
            ("d2", ["high", "mid", "mid"]),
            ("d3", ["high"]),
        ])
        # high: doc 3; mid: doc 2, corpus 3; low: doc 1
        assert d.words() == ["high", "mid", "low"]

    def test_tie_break_corpus_count_then_word(self):
        d = dct.build([("d1", ["b", "b", "a", "z"]), ("d2", ["a", "b", "z"])])
        # all have doc_count 2; b corpus 3 first, then a and z alphabetical
        assert d.words() == ["b", "a", "z"]


class TestPrune:
    def entries(self, counts):
        return [DictEntry(f"w{i}", c, c) for i, c in enumerate(counts)]

    def test_strict_threshold(self):
        d = Dictionary(self.entries([12, 10, 3]))
        assert [e.doc_count for e in dct.prune(d, 10).entries] == [12]

    def test_threshold_zero_is_identity(self):
        d = Dictionary(self.entries([5, 1, 2]))
        assert dct.prune(d, 0).entries == d.entries

    def test_threshold_recorded(self):
        d = Dictionary(self.entries([12, 10]), Provenance("c", "h", 0))
        assert dct.prune(d, 10).provenance.threshold == 10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            dct.prune(Dictionary([]), -1)

    def test_composition(self):
        d = Dictionary(self.entries(range(1, 30)))
        assert dct.prune(dct.prune(d, 7), 15).entries == dct.prune(d, 15).entries
        assert dct.prune(dct.prune(d, 15), 7).entries == dct.prune(d, 15).entries


class TestSerialization:
    def roundtrip(self, d):
        buf = io.StringIO()
        dct.serialize(d, buf)
        return dct.deserialize(io.StringIO(buf.getvalue()))

    def test_round_trip(self):
        d = Dictionary(
            [DictEntry("a", 3, 9), DictEntry("b", 2, 2), DictEntry("c", 1, 1)],
            Provenance("corp1", "cfg1", 0),
        )
        assert self.roundtrip(d) == d

    def test_empty_dictionary(self):
        d = Dictionary([], Provenance("x", "y", 10))
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
        dct.save(dct.build([("d", ["a", "b"])]), path)
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]
        before = path.read_bytes()

        def fail_mid_write(d, stream):
            stream.write("#lexicorp-dict v1 threshold=0 config=\nc\t1\t1\n")
            raise OSError("disk full")

        monkeypatch.setattr(dct, "serialize", fail_mid_write)
        with pytest.raises(OSError, match="disk full"):
            dct.save(dct.build([("d", ["c"])]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]


TOKEN = st.text(alphabet="abcdefg", min_size=1, max_size=3)
TOKEN_LISTS = st.lists(
    st.lists(TOKEN, max_size=8), max_size=12
).map(lambda lists: [(f"d{i}", toks) for i, toks in enumerate(lists)])


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS)
def test_counts_match_naive_recount(token_lists):
    d = dct.build(token_lists)
    doc_counts, corpus_counts = naive_recount(token_lists)
    assert {e.word: e.doc_count for e in d.entries} == doc_counts
    assert {e.word: e.corpus_count for e in d.entries} == corpus_counts
    total_tokens = sum(len(t) for _, t in token_lists)
    assert sum(e.corpus_count for e in d.entries) == total_tokens
    n_docs = len(token_lists)
    assert all(e.corpus_count >= e.doc_count >= 1 for e in d.entries)
    assert all(e.doc_count <= n_docs for e in d.entries)


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS, TOKEN_LISTS)
def test_merge_consistency(lists_a, lists_b):
    # re-key the second set so the document sets are disjoint
    lists_b = [(f"b{i}", toks) for i, (_, toks) in enumerate(lists_b)]
    merged = dct.merge(dct.build(lists_a), dct.build(lists_b))
    direct = dct.build(lists_a + lists_b)
    assert merged.entries == direct.entries


@settings(max_examples=100, deadline=None)
@given(TOKEN_LISTS)
def test_serialize_round_trip_property(token_lists):
    d = dct.build(token_lists, corpus_id="cid", config_hash="ch")
    buf = io.StringIO()
    dct.serialize(d, buf)
    assert dct.deserialize(io.StringIO(buf.getvalue())) == d


def test_merge_refuses_different_configs():
    a = dct.build([("d1", ["x"])], config_hash="aaa")
    b = dct.build([("d2", ["x"])], config_hash="bbb")
    with pytest.raises(ValueError, match="cannot merge"):
        dct.merge(a, b)
    assert dct.merge(a, dct.build([("d2", ["x"])], config_hash="aaa")).entries == [
        DictEntry("x", 2, 2)]


def test_merge_refuses_pruned_dictionaries():
    a = dct.build([("d1", ["x", "y"]), ("d2", ["x"])])
    b = dct.build([("d3", ["y"])])
    for pair in ((dct.prune(a, 1), b), (b, dct.prune(a, 1))):
        with pytest.raises(ValueError, match="pruned at threshold 1"):
            dct.merge(*pair)
    assert dct.merge(dct.prune(a, 0), b).entries == [DictEntry("x", 2, 2), DictEntry("y", 2, 2)]


def test_merge_keeps_only_a_shared_corpus_id():
    def header(a_id, b_id):
        merged = dct.merge(dct.build([("d1", ["x"])], corpus_id=a_id, config_hash="c"),
                           dct.build([("d2", ["x", "y"])], corpus_id=b_id, config_hash="c"))
        buf = io.StringIO()
        dct.serialize(merged, buf)
        return buf.getvalue().splitlines()[0]

    assert header("aaa", "aaa") == "#lexicorp-dict v1 threshold=0 config=c corpus=aaa"
    assert header("aaa", "bbb") == "#lexicorp-dict v1 threshold=0 config=c"
    assert header("aaa", "") == "#lexicorp-dict v1 threshold=0 config=c"


# Every Dictionary that `save` writes, `load` reads back.

@pytest.mark.parametrize("rows", [
    [DictEntry("a", 0, 0)],
    [DictEntry("a", -1, 3)],
    [DictEntry("a", 2, 1)],
    [DictEntry("a", 1, 2**63)],
    [DictEntry("", 1, 1)],
    [DictEntry("a\tb", 1, 1)],
    [DictEntry("a\nb", 1, 1)],
    [DictEntry("a\rb", 1, 1)],
    [DictEntry("a", 1, 1), DictEntry("b", 2, 2), DictEntry("a", 3, 3)],
    [DictEntry("a", 1.5, 2.9)],
    [DictEntry("a", True, True)],
    [DictEntry("a", 1, 2.0)],
    [DictEntry("a", 1, "2")],
    [DictEntry("a", np.True_, 2)],
])
def test_dictionary_refuses_rows_a_file_cannot_hold(rows):
    with pytest.raises(ValueError):
        Dictionary(rows)


def test_dictionary_takes_numpy_integer_counts():
    d = Dictionary([DictEntry("a", np.int32(2), np.uint64(3)), DictEntry("b", 1, np.int64(1))])
    assert d.entries == [("a", 2, 3), ("b", 1, 1)]


@pytest.mark.parametrize("tokens,word", [
    (["a\tb"], "a\tb"), (["", "c"], ""), (["c", "d\r"], "d\r"), (["e\n"], "e\n"),
])
def test_build_refuses_words_a_file_cannot_hold(tokens, word):
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        dct.build([("d", tokens)])


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
).map(lambda r: DictEntry(r[0], r[1], r[1] + r[2]))
SAVED_ID = st.text("ab1=._-", max_size=3) | st.text("a \t\r\x85\u3000", max_size=3)


@settings(max_examples=1000, deadline=None)
@given(st.lists(SAVED_ROW, max_size=5), SAVED_ID, SAVED_ID, st.integers(-2, 10**20))
def test_whatever_save_writes_loads_back_equal(rows, corpus_id, config_hash, threshold):
    try:
        d = Dictionary(rows, Provenance(corpus_id, config_hash, threshold))
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.tsv")
        dct.save(d, path)
        assert dct.load(path) == d


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
    entries, provenance = got if isinstance(got, tuple) else (got.entries, got.provenance)
    return ("ok", [(e.word, e.doc_count, e.corpus_count) for e in entries], provenance)


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
        assert all(type(e) is DictEntry for e in d.entries)
        for threshold in range(6):
            assert dct.prune(d, threshold).entries == [
                e for e in d.entries if e.doc_count > threshold]


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


def test_count_above_int64_is_a_format_error():
    header = "#lexicorp-dict v1 threshold=0 config=c\n"
    big = 2**63
    for row, line_no in ((f"a\t1\t{big}\n", 2), (f"a\t3\t3\nb\t{big}\t{big}\n", 3),
                         ("a\t2\t99999999999999999999", 2)):
        with pytest.raises(DictionaryFormatError, match="count out of range") as err:
            dct.deserialize(io.StringIO(header + row))
        assert err.value.line_no == line_no
    d = dct.deserialize(io.StringIO(header + f"a\t1\t{big - 1}\n"))
    assert d.entries == [DictEntry("a", 1, big - 1)]


@settings(max_examples=100, deadline=None)
@given(TOKEN_LISTS, st.sampled_from([Provenance(), Provenance("cid", "ch", 3)]))
def test_serialize_matches_reference(token_lists, provenance):
    d = dct.build(token_lists)
    d.provenance = provenance
    want, got = io.StringIO(), io.StringIO()
    ref.serialize(d.entries, provenance, want)
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
    entries = held(lambda: [DictEntry(w, int(d), int(c)) for w, d, c in
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
