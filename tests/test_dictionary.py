import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestMinUniqueWords:
    def test_reported(self):
        d = dct.build([("d", ["a", "b"])])
        flagged = dct.min_unique_words_check([("x", ["a", "a", "b"])], d, 3)
        assert flagged == [("x", 2)]

    def test_not_reported(self):
        d = dct.build([("d", ["a", "b", "c"])])
        assert dct.min_unique_words_check([("x", ["a", "b", "c"])], d, 3) == []

    def test_only_dictionary_words_count(self):
        d = dct.build([("d", ["a", "b", "c"])])
        pruned = Dictionary([e for e in d.entries if e.word != "c"])
        flagged = dct.min_unique_words_check([("x", ["a", "b", "c"])], pruned, 3)
        assert flagged == [("x", 2)]


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
