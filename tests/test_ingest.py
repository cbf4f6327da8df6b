import io
import os
import tracemalloc

import ingest_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexicorp import ingest
from lexicorp.config import InputError, PipelineConfig, default_config

CFG = default_config()
FORMS = CFG.heading_forms
# No length floor, so that the field-filter cases can use one-word abstracts.
LOOSE = PipelineConfig(min_len=1)


AUTHORS, TITLE, ABSTRACT, CATEGORIES = 0, ingest.TITLE, ingest.ABSTRACT, ingest.CATEGORIES


def row(**fields):
    """The canonical cells of a record: empty text and list cells, "0" counts."""
    return [fields.get(f, "0" if f in ingest._COUNT_FIELDS else "") for f in ingest.FIELD_ORDER]


def parse(text):
    items = list(ingest.parse_records(io.StringIO(text)))
    return ([r for r in items if isinstance(r, list)],
            [e for e in items if isinstance(e, ingest.ParseError)])


def run(text, config=CFG):
    """run_ingest over an export text: the corpus it writes, lengths, report and errors."""
    out = io.StringIO()
    lengths, report, errors = ingest.run_ingest(io.StringIO(text), out, config)
    return out.getvalue(), lengths, report, errors


def ingest_records(rows, config=CFG):
    """run_ingest over an export holding `rows` of cells, one line each.

    Returns the kept rows as read back from the corpus written, the
    report and the lengths.
    """
    text = ingest.CORPUS_HEADER + "\n" + "".join("\t".join(r) + "\n" for r in rows)
    corpus, lengths, report, _ = run(text, config)
    kept, errors = parse(corpus)
    assert not errors
    return kept, report, lengths


HEADER = "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"


def test_column_table_gives_the_old_declarations():
    assert ingest.FIELD_ORDER == reference.FIELD_ORDER
    assert (ingest.TITLE, ingest.ABSTRACT, ingest.CATEGORIES) == (
        reference.TITLE, reference.ABSTRACT, reference.CATEGORIES)
    assert ingest._LIST_CELLS == reference.LIST_CELLS
    assert ingest._COUNT_FIELDS == reference.COUNT_FIELDS
    assert list(ingest._HEADER_ALIASES.items()) == list(reference.HEADER_ALIASES.items())
    assert ingest.CORPUS_HEADER == reference.CORPUS_HEADER


class TestParseRecords:
    def test_two_valid_rows(self):
        text = HEADER + "A, B\tT1\tsome text\tPhys\tSci\t1\t1\nC, D\tT2\tmore text\tBio\tLife\t0\t0\n"
        records, errors = parse(text)
        assert len(records) == 2 and not errors
        assert records[0][TITLE] == "T1"
        assert records[0][CATEGORIES] == "Phys"

    def test_empty_authors_retained(self):
        text = HEADER + "\tT\tabstract text\tPhys\tSci\t0\t0\n"
        records, errors = parse(text)
        assert len(records) == 1 and not errors
        assert records[0][AUTHORS] == ""

    def test_wrong_column_count_ledgered(self):
        text = HEADER + "a\tb\tc\td\te\n"
        records, errors = parse(text)
        assert records == []
        assert len(errors) == 1
        assert errors[0].line_no == 2
        assert "5" in errors[0].reason

    def test_list_fields_split_and_trimmed(self):
        text = HEADER + "Smith, J; Doe, A\tT\tabs\tPhysics ; Optics\tSci\t2\t1\n"
        records, _ = parse(text)
        assert records[0][AUTHORS] == "Smith, J; Doe, A"
        assert records[0][CATEGORIES] == "Physics; Optics"

    def test_non_integer_citation_ledgered(self):
        text = HEADER + "A\tT\tabs\tP\tS\tmany\t0\n"
        records, errors = parse(text)
        assert records == [] and errors[0].line_no == 2

    def test_negative_citation_ledgered(self):
        text = HEADER + "A\tT\tabs\tP\tS\t-3\t0\n"
        records, errors = parse(text)
        assert records == [] and len(errors) == 1

    @pytest.mark.parametrize("header,reason", [
        ("AU\tTI\tAB\tWC\tSC\tTC\tZ9\n", "non-integer value 'many' in column times_cited_core"),
        ("AU\tTI\tAB\tWC\tSC\tZ9\tTC\n", "non-integer value 'many' in column total_times_cited"),
    ])
    def test_first_bad_count_in_header_order_reported(self, header, reason):
        text = header + "A\tT\tabs\tP\tS\tmany\t-3\n"
        assert parse(text) == ([], [ingest.ParseError(2, reason)])
        assert reference.run_ingest(io.StringIO(text))[2] == [ingest.ParseError(2, reason)]

    def test_cells_normalised(self):
        text = HEADER + " Smith, J ;; Doe, A \t T \t abs \t ; \tS;\t +2 \t\n"
        assert parse(text) == ([["Smith, J; Doe, A", "T", "abs", "", "S", "2", "0"]], [])
        text = HEADER + "A\tT\tabs\tP\tS\t007\t\u0663\n"
        assert parse(text)[0][0][5:] == ["7", "3"]

    def test_missing_header_column_fatal(self):
        with pytest.raises(ValueError, match="missing required columns"):
            parse("AU\tTI\tAB\n" + "a\tb\tc\n")

    def test_full_names_accepted(self):
        text = ("Authors\tTitle\tAbstract\tCategories\tResearch Areas\t"
                "Total Times Cited\tTimes Cited in CC\nA\tT\tab\tP\tS\t0\t0\n")
        records, errors = parse(text)
        assert len(records) == 1 and not errors

    def test_header_checked_on_first_next(self):
        records = ingest.parse_records(io.StringIO(""))
        with pytest.raises(InputError, match="no header row"):
            next(records)

    def test_records_stream_before_a_later_failure(self):
        def lines():
            yield HEADER
            yield "A\tT1\tabs\tP\tS\t0\t0\n"
            yield "short\trow\n"
            yield "A\tT2\tabs\tP\tS\t0\t0\n"
            raise OSError("read failed")

        records = ingest.parse_records(lines())
        assert next(records)[TITLE] == "T1"
        assert next(records) == ingest.ParseError(3, "expected 7 columns, got 2")
        assert next(records)[TITLE] == "T2"
        with pytest.raises(OSError, match="read failed"):
            next(records)


class TestFilterInvalid:
    def test_empty_abstract_removed(self):
        docs, report, _ = ingest_records([row(abstract="", categories="Physics")],
                                         LOOSE)
        assert docs == []
        assert (report.n_parsed, report.n_after_field_filter) == (1, 0)

    def test_no_categories_removed(self):
        docs, report, _ = ingest_records([row(abstract="text", categories="")],
                                         LOOSE)
        assert docs == []
        assert (report.n_parsed, report.n_after_field_filter) == (1, 0)

    def test_valid_kept_in_order(self):
        rs = [row(title=f"T{i}", abstract=f"t{i}", categories="C") for i in range(3)]
        docs, report, lengths = ingest_records(rs, LOOSE)
        assert docs == rs
        assert lengths == {1: 3}
        assert report.n_after_field_filter == 3

    def test_idempotent(self):
        rs = [
            row(abstract="", categories="C"),
            row(abstract="x", categories="C"),
            row(abstract="y", categories=""),
        ]
        once, _, _ = ingest_records(rs, LOOSE)
        again, report, _ = ingest_records(once, LOOSE)
        assert again == once
        assert report.n_after_field_filter == len(once) == 1

    def test_many_categories_warn_but_keep(self, caplog):
        rs = [row(title=f"T{i}", abstract="x", categories="; ".join(f"c{j}" for j in range(7)))
              for i in range(7)]
        with caplog.at_level("WARNING"):
            docs, _, _ = ingest_records(rs + [row(abstract="y", categories="c; c; c; c; c; c")],
                                        LOOSE)
        assert len(docs) == 8
        assert len(caplog.records) == 1
        message = caplog.messages[0]
        assert message.startswith("7 record(s) have more than 6 categories")
        assert all(f"'T{i}'" in message for i in range(5))
        assert "'T5'" not in message and "'T6'" not in message


class TestSplitHeadings:
    def test_conclusion_higher(self):
        assert ingest.split_concatenated_headings("ConclusionHigher", FORMS) == \
            ("Conclusion Higher", 1)

    def test_longest_match_wins(self):
        assert ingest.split_concatenated_headings("ConclusionsRT", FORMS) == \
            ("Conclusions RT", 1)

    def test_lowercase_untouched(self):
        assert ingest.split_concatenated_headings("conclusionhigher", FORMS) == \
            ("conclusionhigher", 0)

    def test_heading_before_lowercase_untouched(self):
        assert ingest.split_concatenated_headings("Conclusions were", FORMS) == \
            ("Conclusions were", 0)

    def test_chained_headings(self):
        got, n = ingest.split_concatenated_headings("MethodsResultsWe measured", FORMS)
        assert got == "Methods Results We measured"
        assert n == 2

    def test_phrase_heading(self):
        text = "Implications for health and nursing policyThe findings"
        got, n = ingest.split_concatenated_headings(text, FORMS)
        assert got == "Implications for health and nursing policy The findings"
        assert n == 1

    @pytest.mark.parametrize("forms,text,expected", [
        (("AimB",), "AimBX and AimBy", ("AimB X and AimBy", 1)),
        (("Résumé",), "RésuméThe résuméThe", ("Résumé The résuméThe", 1)),
        (("Aim", ""), "AimB", ("Aim  B", 2)),
    ])
    def test_forms_without_a_gate_run_the_regex(self, forms, text, expected):
        # A form that ends in a capital or a non-ASCII letter, or is empty.
        assert ingest._heading_rules(forms)[0] is None
        assert ingest.split_concatenated_headings(text, forms) == expected

    def test_idempotent(self):
        once, _ = ingest.split_concatenated_headings("BackgroundTau AimsB", FORMS)
        again, n = ingest.split_concatenated_headings(once, FORMS)
        assert again == once and n == 0


class TestWordCount:
    # The length filter counts an abstract's words as str.split() does. An
    # abstract of no words is dropped earlier, by the field filter.
    @pytest.mark.parametrize("text,expected", [
        ("Tau Reduction Diminishes", 3),
        ("z-score  test", 2),
        ("one", 1),
        ("a\x1fb\x0bc\x0cd", 4),  # ASCII separators that str.split() splits on
        ("é\xa0ß\u3000x\x85y", 4),  # and Unicode spaces
    ])
    def test_counts(self, text, expected):
        for n, kept in ((expected - 1, False), (expected, True), (expected + 1, False)):
            docs, _, lengths = ingest_records([row(abstract=text, categories="C")],
                                              PipelineConfig(min_len=n, max_len=n))
            assert (len(docs), lengths) == ((1, {n: 1}) if kept else (0, {}))


ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
# Capitals, letters that end forms, every ASCII whitespace character,
# Unicode spaces, non-ASCII letters and lone surrogates.
TEXT_CHARS = "ABZaesx." + ASCII_SPACE + "\x85\xa0\u3000" + "éΣß" + "\ud800\udfff"
# Forms may end in a capital or a non-ASCII letter, or be empty.
FORM_TUPLES = st.one_of(
    st.just(FORMS),
    st.lists(st.text(st.sampled_from("AZaes.éΣ "), max_size=4), max_size=4).map(tuple),
)


@settings(max_examples=1000, deadline=None)
@given(
    text=st.lists(st.one_of(st.text(st.sampled_from(TEXT_CHARS), max_size=4),
                            st.sampled_from(FORMS)), max_size=8).map("".join),
    forms=FORM_TUPLES,
)
def test_gated_split_matches_the_regex_split(text, forms):
    assert (ingest.split_concatenated_headings(text, forms)
            == reference.split_concatenated_headings(text, forms))


class TestFilterByLength:
    def make(self, n):
        return row(abstract="w " * n, categories="C")

    @pytest.mark.parametrize("n,kept", [(29, False), (30, True), (500, True), (501, False)])
    def test_boundaries(self, n, kept):
        docs, report, _ = ingest_records([self.make(n)])
        assert (len(docs) == 1) is kept
        assert report.n_after_length_filter == len(docs)

    def test_idempotent_and_partition(self):
        lengths = (1, 29, 30, 100, 500, 501, 900)
        kept, report, kept_lengths = ingest_records([self.make(n) for n in lengths])
        again, _, _ = ingest_records(kept)
        assert again == kept
        assert kept_lengths == {30: 1, 100: 1, 500: 1}
        below = sum(1 for n in lengths if n < 30)
        above = sum(1 for n in lengths if n > 500)
        assert report.n_after_field_filter == len(lengths)
        assert len(kept) + below + above == len(lengths)


class TestLengthHistogram:
    def test_basic(self):
        rs = [row(abstract="w " * n, categories="C") for n in (3, 3, 5, 600)]
        _, _, lengths = ingest_records(rs, LOOSE)
        assert lengths == {3: 2, 5: 1}

    def test_empty(self):
        _, _, lengths = ingest_records([])
        assert lengths == {}


class TestRunIngest:
    def test_five_row_fixture(self, export_file):
        with open(export_file, encoding="utf-8") as f:
            corpus, lengths, report, errors = run(f.read())
        assert report.n_parsed == 5
        assert report.n_after_field_filter == 4
        assert report.n_after_length_filter == 3
        assert report.n_headings_split == 1
        assert not errors
        docs, _ = parse(corpus)
        assert len(docs) == 3
        assert docs[2][ABSTRACT].startswith("Conclusion Higher")
        assert lengths == {35: 1, 200: 1, 43: 1}

    def test_counts_monotone(self, export_file):
        with open(export_file, encoding="utf-8") as f:
            _, _, report, _ = run(f.read())
        assert report.n_parsed >= report.n_after_field_filter >= report.n_after_length_filter


ATOM = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="\t;"),
    max_size=15,
).map(str.strip)


@settings(max_examples=200, deadline=None)
@given(
    authors=st.lists(ATOM.filter(bool), max_size=3),
    title=ATOM,
    abstract=ATOM,
    categories=st.lists(ATOM.filter(bool), max_size=3),
    areas=st.lists(ATOM.filter(bool), max_size=2),
    total=st.integers(0, 10_000),
    core=st.integers(0, 10_000),
)
def test_round_trip(authors, title, abstract, categories, areas, total, core):
    cells = ["; ".join(authors), title, abstract, "; ".join(categories), "; ".join(areas),
             str(total), str(core)]
    out = io.StringIO()
    ingest.write_corpus([cells], out)
    parsed, errors = parse(out.getvalue())
    assert not errors
    assert parsed == [cells]


ALIASES = {f: sorted(a for a, name in ingest._HEADER_ALIASES.items() if name == f)
           for f in ingest.FIELD_ORDER}
WORDS = ("tau", "reduction", "x-ray", "Ünïcode", "Background")


@st.composite
def header_cells(draw):
    """Column names in any order and spelling, maybe with an extra or a missing column."""
    fields = list(draw(st.permutations(ingest.FIELD_ORDER)))
    if draw(st.integers(0, 19)) == 0:
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    cells = []
    for f in fields:
        name = draw(st.sampled_from(ALIASES[f]))
        cells.append(draw(st.sampled_from([name, name.upper(), name.title(), f" {name} "])))
    if draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(["Notes", "TI", "AB"])))
    return cells


def abstracts():
    """Texts of 0, 29, 30, 500 or 501 words (and a few more), some with glued headings."""
    n_words = st.sampled_from([0, 1, 29, 30, 31, 499, 500, 501])
    glued = st.sampled_from(["", "ConclusionHigher ", "BackgroundTau AimsB ",
                             "Implications for health and nursing policyThe "])
    return st.builds(lambda g, n, w, pad: pad + g + " ".join([w] * n) + pad,
                     glued, n_words, st.sampled_from(WORDS), st.sampled_from(["", " ", "  "]))


def cells_for(name):
    if name in ("authors", "categories", "research_areas"):
        return st.one_of(
            st.integers(0, 7).map(lambda k: "; ".join(f"{name[:3]}{i}" for i in range(k))),
            st.sampled_from([" ; ", "Smith, J;Doe, A", "a;;b"]))
    if name in ("total_times_cited", "times_cited_core"):
        return st.sampled_from(["", "0", "3", " 7 ", "+2"] * 5 + ["-3", "many", "1.5", "٣"])
    if name == "abstract":
        return abstracts()
    return st.sampled_from(["", "T", "A title", "Ünïcode title", "A title " * 8])


@st.composite
def exports(draw):
    cells = draw(header_cells())
    names = [ingest._HEADER_ALIASES.get(c.strip().lower()) for c in cells]
    lines = ["\t".join(cells)]
    for kind in draw(st.lists(st.sampled_from(["record"] * 6 + ["blank", "short", "long"]),
                              max_size=8)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind == "record":
            lines.append("\t".join(draw(cells_for(n)) if n else "note" for n in names))
        else:
            lines.append("\t".join(["x"] * (len(cells) + (1 if kind == "long" else -2))))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def run_or_error(text):
    try:
        return run(text)
    except InputError as e:
        return type(e), str(e)


def reference_or_error(text):
    """The reference's documents as `write_corpus` writes them, lengths, report, errors."""
    try:
        docs, report, errors = reference.run_ingest(io.StringIO(text), CFG)
    except InputError as e:
        return type(e), str(e)
    corpus = "".join(reference.format_record(d) + "\n" for d in docs)
    lengths, _ = reference.length_histogram(docs)
    return ingest.CORPUS_HEADER + "\n" + corpus, lengths, report, errors


@settings(max_examples=300, deadline=None)
@given(text=exports())
def test_run_ingest_matches_reference(text):
    assert run_or_error(text) == reference_or_error(text)


def test_empty_export_matches_reference():
    assert run_or_error("") == reference_or_error("")


def test_memory_does_not_grow_with_record_count():
    def export(n):
        yield HEADER
        for i in range(n):
            yield f"Smith, J\tTitle {i}\t{'word ' * 40}\tPhysics\tScience\t3\t2\n"

    def peak(n):
        with open(os.devnull, "w", encoding="utf-8") as out:
            tracemalloc.start()
            try:
                _, report, _ = ingest.run_ingest(export(n), out)
                assert report.n_after_length_filter == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(10)  # compiled patterns and other one-off caches
    small, large = peak(2_000), peak(8_000)
    # Holding the kept records would make `large` about 4 times `small`.
    assert large < 1.5 * small + 256 * 1024
