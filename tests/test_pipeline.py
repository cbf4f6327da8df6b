import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_reference as ref
from lexicorp import pipeline as pl
from lexicorp import tables
from lexicorp.config import PipelineConfig, default_config, dump_config, load_config

CFG = default_config()


class TestStripPunctuation:
    def test_exact_space_mapping(self):
        assert pl.strip_punctuation("(TBI).") == " TBI  "

    def test_hyphen_survives(self):
        assert pl.strip_punctuation("pre-processing,") == "pre-processing "
        assert pl.strip_punctuation("z-score") == "z-score"

    def test_semicolon_becomes_space(self):
        assert pl.strip_punctuation("co2; h2o") == "co2  h2o"

    def test_underscore_removed(self):
        assert pl.strip_punctuation("a_b") == "a b"

    def test_unicode_letters_kept(self):
        assert pl.strip_punctuation("café!") == "café "


def text_steps(text, cfg=CFG):
    """Steps 3-6 on each whitespace-separated token of lowercased text."""
    return [t for w in text.split() for t in pl._token_memo(cfg)._text_steps(w)]


class TestLowercase:
    @pytest.mark.parametrize("text", ["Corpus", "CORPUS", "corpus"])
    def test_casefold(self, text):
        assert pl.process_document(text) == ["corpus"]


class TestUnitePrefixes:
    # a spread of cases across the prefix table; the expected text is
    # the united text, whose remaining hyphens step 5 then splits at
    @pytest.mark.parametrize("text,expected", [
        ("anti-viral", "antiviral"),
        ("ex-president", "expresident"),
        ("co-author", "coauthor"),
        ("non-payment", "nonpayment"),
        ("pre-processing", "preprocessing"),
        ("self-test", "selftest"),
        ("ultra-fast", "ultrafast"),
        ("micro-scale", "microscale"),
        ("re-use", "reuse"),
        ("semi-final", "semifinal"),
        ("under-report", "underreport"),
        ("e-mail", "email"),
        ("per-user", "peruser"),
        ("hyper-active", "hyperactive"),
        ("inter-action", "interaction"),
        ("multi-level wave-guide", "multilevel wave-guide"),
    ])
    def test_prefix_cases(self, text, expected):
        assert text_steps(text) == expected.replace("-", " ").split()

    def test_non_prefix_untouched(self):
        # "well-known" is also a substitution key, so test it without them
        assert text_steps("well-known", PipelineConfig(substitutions=())) == ["well", "known"]

    def test_only_first_hyphen(self):
        assert text_steps("anti-self-test") == ["antiself", "test"]

    def test_prefix_must_start_token(self):
        assert text_steps("xx-anti-y") == ["xx", "anti", "y"]

    def test_dangling_hyphen_untouched(self):
        assert text_steps("anti- viral") == ["anti", "viral"]


class TestApplySubstitutions:
    @pytest.mark.parametrize("key,value", list(tables.SUBSTITUTIONS))
    def test_every_rule(self, key, value):
        assert text_steps(key) == [value]

    def test_unknown_token_untouched(self):
        assert text_steps("t-test") == ["t", "test"]

    def test_whole_token_only(self):
        assert text_steps("z-scores-based") == ["z", "scores", "based"]

    def test_in_context(self):
        assert text_steps("the z-score was") == ["the", "zscore", "was"]


class TestStripHyphens:
    def test_multi(self):
        assert text_steps("state-of-the-art") == ["state", "of", "the", "art"]

    def test_simple(self):
        assert text_steps("t-test") == ["t", "test"]

    def test_none(self):
        assert text_steps("wellknown") == ["wellknown"]


class TestStripNumbers:
    def test_pure_number_removed(self):
        assert text_steps("in 2014 co2 rose") == ["in", "co2", "rose"]

    @pytest.mark.parametrize("token", ["co2", "h2o", "1990s", "zn2", "21st"])
    def test_mixed_tokens_kept(self, token):
        assert text_steps(token) == [token]

    def test_all_removed(self):
        assert text_steps("3 14") == []


class TestTokenize:
    def test_basic(self):
        assert pl.process_document("corpus  study") == ["corpus", "studi"]

    def test_empty(self):
        assert pl.process_document(" \t\n ") == []

    def test_strip(self):
        assert pl.process_document(" corpus ") == ["corpus"]


class TestRemoveStopwords:
    def test_removal(self):
        assert pl.process_document("the result") == ["result"]

    def test_can_is_not_a_stop_word(self):
        assert pl.process_document("can show") == ["can", "show"]

    def test_empty(self):
        assert pl.process_document("the", PipelineConfig(stop_words=())) == ["the"]

    def test_stemmed_stop_forms_match(self):
        # "does" stems to "doe"; the processed list must still catch it
        stop = pl._token_memo(CFG).stop_set
        assert "doe" in stop
        assert "the" in stop
        assert pl.process_document("Does the") == []


class TestProcessDocument:
    def test_zscore_trace(self):
        assert pl.process_document("The Z-score was 2.5 in 2014") == ["zscore"]

    def test_prefix_and_stem(self):
        assert pl.process_document("Ex-president listened") == ["expresid", "listen"]

    def test_empty_document(self):
        assert pl.process_document("") == []

    def test_determinism(self):
        text = "Measurements of co2 in well-known z-tests, 2014-2015."
        assert pl.process_document(text) == pl.process_document(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_output_token_shape(text):
    import re
    for token in pl.process_document(text):
        assert token
        assert token == token.lower()
        assert "-" not in token
        assert not re.fullmatch(r"\d+", token)
        assert not any(c.isspace() for c in token)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_character_steps_idempotent(text):
    once = pl.strip_punctuation(text)
    assert pl.strip_punctuation(once) == once
    for token in text_steps(once.lower()):
        assert text_steps(token) == [token]


def test_table_sizes():
    assert len(tables.PREFIXES) == 55
    assert len(set(tables.PREFIXES)) == 55
    assert len(tables.SUBSTITUTIONS) == 15
    assert len(tables.STOP_WORDS) == 174
    assert len(set(tables.STOP_WORDS)) == 174
    assert len(tables.SECTION_HEADINGS) == 29
    assert len(tables.expand_headings(tables.SECTION_HEADINGS)) == 46


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(prefixes=())
    with pytest.raises(ValueError):
        PipelineConfig(substitutions=(("nohyphen", "x"),))
    with pytest.raises(ValueError):
        PipelineConfig(stop_words=("The",))
    with pytest.raises(ValueError):
        PipelineConfig(prefixes=("anti", "ex post"))
    with pytest.raises(ValueError):
        PipelineConfig(substitutions=(("p value-x", "pvalue"),))
    with pytest.raises(ValueError):
        PipelineConfig(min_len=10, max_len=5)
    # Only letters and digits in a prefix, and letters, digits and "-" in
    # a key: "anti-self" would unite "anti-self-test" under the whole-text
    # regex but not in the per-token pass.
    for prefix in ("anti-self", "i\u0307", "anti_", "co."):
        with pytest.raises(ValueError, match="not all letters and digits"):
            PipelineConfig(prefixes=("anti", prefix))
    for key in ("z-score\u0307", "z-score.", "p_value-x"):
        with pytest.raises(ValueError, match="other than letters, digits and '-'"):
            PipelineConfig(substitutions=((key, "x"),))
    assert PipelineConfig(prefixes=("anti", "ß2"), substitutions=(("-", "x"), ("é-2", "y")))


# Differential tests against the whole-text pipeline in pipeline_reference.

# Any code point, lone surrogates included, with the non-ASCII characters
# of real abstracts made common.
ANY_TEXT = st.text(st.one_of(st.characters(blacklist_categories=[]),
                             st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                             st.sampled_from("µ°–’…é_- .,;")), max_size=200)


@settings(max_examples=1000, deadline=None)
@given(ANY_TEXT)
def test_strip_punctuation_matches_reference(text):
    assert pl.strip_punctuation(text) == ref.strip_punctuation(text)


@settings(max_examples=300, deadline=None)
@given(ANY_TEXT)
def test_matches_reference_on_text_with_surrogates(text):
    assert pl.process_document(text) == ref.process_document(text)


def test_isdecimal_is_the_digit_class():
    # The memo drops a piece of a token as a number iff isdecimal(); the
    # reference's strip_numbers drops it iff it is all \d. Both mean
    # category Nd.
    import re
    digit = re.compile(r"\d").fullmatch
    assert [c for c in map(chr, range(0x110000)) if c.isdecimal() != bool(digit(c))] == []


@pytest.mark.parametrize("token", [
    "42", "\u0661\u0662", "²", "co2", "21st", "the", "studies", "café", "x-ray",
    "anti-42", "42-", "-", "chi-square", "ex-president",
    # "İ" lowercases to "i" + U+0307, after which a prefix or a key may start
    "İanti-viral", "İz-test", "anti-İ",
    # a hyphenated token's pieces are memo entries of their own: pieces
    # that are stop words, numbers, repeated, or an earlier whole token
    "the-model", "model-the-model", "42-the", "studies-study", "x-ray-x",
])
def test_memo_entry_matches_reference(token):
    cfg = PipelineConfig()
    assert pl._token_memo(cfg)[token.lower()] == tuple(ref.process_document(token, cfg))
    assert pl.process_document(token, cfg) == ref.process_document(token, cfg)


# PipelineConfig does not check substitution values, so upper case, a
# space and a "-" in them reach the memo as pieces that are not lowercased.
_ODD_VALUES = PipelineConfig(substitutions=tables.SUBSTITUTIONS + (
    ("mega-watt", "Mega Watt-Hours"), ("giga-x", "The-42")))


@pytest.mark.parametrize("token", [
    "mega-watt", "giga-x", "mega-watt-x", "hours-mega-watt", "mega", "the-giga-x",
])
def test_memo_entry_matches_reference_with_odd_substitution_values(token):
    memo = pl._token_memo(_ODD_VALUES)
    assert memo[token] == tuple(ref.process_document(token, _ODD_VALUES))
    for text in (token, f"{token} Mega watt {token}"):
        assert pl.process_document(text, _ODD_VALUES) == ref.process_document(text, _ODD_VALUES)

def test_processed_stop_set_matches_reference():
    assert pl._token_memo(CFG).stop_set == ref.processed_stop_set(CFG)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=300))
def test_matches_reference_on_any_text(text):
    assert pl.process_document(text) == ref.process_document(text)


# Characters whose case mapping, category or whitespace status differs
# between str.lower(), str.split(), the \w class and str.isascii(), and
# every rule-table entry, so that prefixes and substitutions fire.
_CHARS = [
    "İ", "Σ", "ς", "’", "\u0301", ".", "ﬁ", "\x1c", "\x85", "\u3000", "²",
    "\u0661", "\u0662", "_", "-", "--", " ", "\t", "\n", "\r\n", "'", ",",
    "a", "E", "s", "x", "0", "7", "42", "the", "Does", "I'm",
]
_RULES = ["giga-", "mega-watt"] + [p + "-" for p in tables.PREFIXES] + [
    k for k, _ in tables.SUBSTITUTIONS]
_RULES += [r.upper() for r in _RULES]
TRICKY_TEXT = st.lists(st.one_of(st.sampled_from(_CHARS), st.sampled_from(_RULES)),
                       max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(TRICKY_TEXT)
def test_matches_reference_on_tricky_text(text):
    assert pl.process_document(text) == ref.process_document(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(TRICKY_TEXT, st.text(max_size=80)), max_size=8), st.randoms())
def test_memo_hits_match_reference(docs, rnd):
    cfg = PipelineConfig()  # a fresh object, so its memo starts empty
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    for doc in docs + docs + shuffled:
        assert pl.process_document(doc, cfg) == ref.process_document(doc, cfg)


@pytest.fixture(scope="module")
def custom_config(tmp_path_factory):
    """The defaults plus one prefix and one substitution, as files."""
    d = tmp_path_factory.mktemp("cfg")
    dump_config(CFG, d)
    with open(d / "prefixes.txt", "a", encoding="utf-8") as f:
        f.write("giga\n")
    with open(d / "substitutions.tsv", "a", encoding="utf-8") as f:
        f.write("mega-watt\tmegawatt\n")
    return load_config(d)


def test_memo_is_per_config(custom_config):
    text = "Giga-watt and mega-watt anti-viral"
    for _ in range(2):
        assert pl.process_document(text, custom_config) == ["gigawatt", "megawatt", "antivir"]
        assert pl.process_document(text) == ["giga", "watt", "mega", "watt", "antivir"]


@settings(max_examples=300, deadline=None)
@given(st.lists(TRICKY_TEXT, max_size=4))
def test_custom_config_matches_reference(custom_config, docs):
    for doc in docs:
        assert pl.process_document(doc, custom_config) == ref.process_document(doc, custom_config)
        assert pl.process_document(doc) == ref.process_document(doc)


# Tables and text over a few characters, "İ" and U+0307 among them, so
# that prefixes and keys overlap, nest and meet run breaks. Every table
# that PipelineConfig accepts must give the reference's tokens.
_PART = st.lists(st.sampled_from(["a", "i", "2", "é", "-", "\u0307", "i\u0307"]),
                 min_size=1, max_size=3).map("".join)
_ATOMS = st.sampled_from(["a", "i", "I", "2", "-", " ", "İ", "\u0307", "é"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_PART, min_size=1, max_size=3),
       st.lists(st.tuples(st.tuples(_PART, _PART).map("-".join), _PART), min_size=0, max_size=3),
       st.data())
def test_any_accepted_table_matches_reference(prefixes, substitutions, data):
    try:
        cfg = PipelineConfig(prefixes=tuple(prefixes), substitutions=tuple(substitutions),
                             stop_words=())
    except ValueError:
        return
    # The entries as text: "İ" is what lowercases to "i" + U+0307.
    rules = [e.replace("i\u0307", "İ") for e in
             [p + "-" for p in prefixes] + [k for k, _ in substitutions]]
    text = "".join(data.draw(st.lists(_ATOMS | st.sampled_from(rules), max_size=12)))
    assert pl.process_document(text, cfg) == ref.process_document(text, cfg)
