import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexicorp.stemmer import _porter2, stem

import stemmer_reference as before
from porter2_reference import EnglishStemmer

reference = EnglishStemmer().stem


@pytest.mark.parametrize("word,expected", [
    ("listening", "listen"),
    ("listens", "listen"),
    ("listened", "listen"),
    ("accumulation", "accumul"),
    ("accumulate", "accumul"),
    ("accumulates", "accumul"),
    ("studies", "studi"),
    ("study", "studi"),
    ("acid", "acid"),
    ("acidic", "acid"),
    ("acids", "acid"),
    ("expresident", "expresid"),
    ("significant", "signific"),
    ("comparison", "comparison"),
    ("compared", "compar"),
    ("increased", "increas"),
])
def test_known_stems(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word", ["co2", "h2o", "1990s", "zn2", "21st"])
def test_digit_tokens_pass_through(word):
    assert stem(word) == word


@pytest.mark.parametrize("word", ["research", "data"])
def test_a_lowercase_word_no_rule_changes_is_returned_itself(word):
    # Not a lowercased copy, which the token memo would hold as a second string.
    assert stem(word) is word


def test_non_ascii_tokens_pass_through():
    assert stem("résultat") == "résultat"
    assert stem("café") == "café"


def test_short_words_unchanged():
    assert stem("a") == "a"
    assert stem("by") == "by"
    assert stem("is") == "is"


def test_special_words():
    assert stem("dying") == "die"
    assert stem("news") == "news"
    assert stem("proceeding") == "proceed"


def test_apostrophe_forms():
    assert _porter2("boy's") == reference("boy's")
    assert _porter2("'cause") == reference("'cause")


def test_reference_still_matches_fixture(stem_vocab_pairs):
    # guards the frozen file against accidental edits
    sample = random.Random(12).sample(stem_vocab_pairs, 500)
    for word, expected in sample:
        assert reference(word) == expected, word


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=20))
def test_agreement_with_reference_on_random_words(word):
    assert _porter2(word) == reference(word)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="aeiouybcdlstz", min_size=1, max_size=8))
def test_agreement_on_vowel_heavy_words(word):
    assert _porter2(word) == reference(word)


# Differential tests against the ungated stemmer in stemmer_reference.

def test_matches_stemmer_reference_on_whole_fixture(stem_vocab_pairs):
    assert len(stem_vocab_pairs) == 29_341
    mismatches = [(w, _porter2(w), before._porter2(w), expected)
                  for w, expected in stem_vocab_pairs
                  if not _porter2(w) == before._porter2(w) == expected]
    assert mismatches == []


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789'", min_size=1, max_size=20))
def test_matches_stemmer_reference_on_alphanumeric_words(word):
    assert _porter2(word) == before._porter2(word)


# A third of the letters are y, so that runs of y test the consonant marking.
Y_HEAVY = st.text(alphabet=st.sampled_from("yyyyyyyyaeioubcdlnstz'"),
                  min_size=1, max_size=14)


@settings(max_examples=2000, deadline=None)
@given(Y_HEAVY)
def test_matches_stemmer_reference_on_y_heavy_words(word):
    assert _porter2(word) == before._porter2(word)


# Words built from the rule suffixes of the steps: random letters almost
# never reach a long suffix inside R1 or R2, so they leave most rules of
# steps 2-4 and their region bookkeeping untried.
RULE_SUFFIXES = (
    # steps 2 and 3
    "ization", "ational", "fulness", "ousness", "iveness", "tional", "biliti",
    "lessli", "entli", "ation", "alism", "aliti", "ousli", "iviti", "fulli",
    "enci", "anci", "abli", "izer", "ator", "alli", "bli", "ogi", "li",
    "alize", "icate", "iciti", "ative", "ical", "ness", "ful",
    # step 4
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
    # the apostrophe and steps 1a-1c
    "s", "es", "ies", "sses", "y", "ly", "'s",
    "eed", "eedly", "ed", "edly", "ing", "ingly",
)
SUFFIXED = st.builds(lambda stem_, suffixes: stem_ + "".join(suffixes),
                     st.text(alphabet="aeiouybcdglnrst", max_size=6),
                     st.lists(st.sampled_from(RULE_SUFFIXES), min_size=1, max_size=3))


@settings(max_examples=2000, deadline=None)
@given(SUFFIXED)
def test_matches_both_references_on_words_built_from_rule_suffixes(word):
    assert _porter2(word) == before._porter2(word) == reference(word)


def test_matches_both_references_on_every_short_stem_and_rule_suffix():
    # One vowel and the consonants that rules test before a suffix (l for
    # ogi, t for li, s and t for ion): every stem up to 4 letters puts the
    # R1 and R2 boundaries at each place near the suffix, which a few
    # thousand random draws reach only by chance.
    stems = ["".join(p) for n in range(5) for p in itertools.product("alst", repeat=n)]
    words = [stem_ + suffix for stem_ in stems for suffix in RULE_SUFFIXES]
    assert [w for w in words if not _porter2(w) == before._porter2(w) == reference(w)] == []


@pytest.mark.parametrize("word", ["yyy", "ayyy", "yay", "sayyid", "buoyancy", "'yes's'",
                                  "generously", "communalism", "arsenals"])
def test_matches_stemmer_reference_on_edge_words(word):
    assert _porter2(word) == before._porter2(word)


@pytest.mark.parametrize("word", ["’tis", "boy’s", "‘cause", "o‛clock"])
def test_curly_apostrophe_words_pass_through(word):
    # Non-ASCII, so `stem` returns them before the apostrophe step.
    assert stem(word) == word


@settings(max_examples=1000, deadline=None)
@given(st.text(max_size=20))
def test_stem_matches_stemmer_reference(token):
    assert stem(token) == before.stem(token)


@settings(max_examples=500, deadline=None)
@given(st.text(min_size=1, max_size=12), st.one_of(st.characters(min_codepoint=48, max_codepoint=57),
                                                  st.characters(min_codepoint=128)))
def test_digit_or_non_ascii_tokens_pass_through(text, char):
    token = text + char
    assert stem(token) == token
