import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexicorp import ingest
from lexicorp.config import default_config

CFG = default_config()
FORMS = CFG.heading_forms


def parse(text):
    return ingest.parse_records(io.StringIO(text))


HEADER = "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"


class TestParseRecords:
    def test_two_valid_rows(self):
        text = HEADER + "A, B\tT1\tsome text\tPhys\tSci\t1\t1\nC, D\tT2\tmore text\tBio\tLife\t0\t0\n"
        records, errors = parse(text)
        assert len(records) == 2 and not errors
        assert records[0].title == "T1"
        assert records[0].categories == ["Phys"]

    def test_empty_authors_retained(self):
        text = HEADER + "\tT\tabstract text\tPhys\tSci\t0\t0\n"
        records, errors = parse(text)
        assert len(records) == 1 and not errors
        assert records[0].authors == []

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
        assert records[0].authors == ["Smith, J", "Doe, A"]
        assert records[0].categories == ["Physics", "Optics"]

    def test_non_integer_citation_ledgered(self):
        text = HEADER + "A\tT\tabs\tP\tS\tmany\t0\n"
        records, errors = parse(text)
        assert records == [] and errors[0].line_no == 2

    def test_negative_citation_ledgered(self):
        text = HEADER + "A\tT\tabs\tP\tS\t-3\t0\n"
        records, errors = parse(text)
        assert records == [] and len(errors) == 1

    def test_missing_header_column_fatal(self):
        with pytest.raises(ValueError, match="missing required columns"):
            parse("AU\tTI\tAB\n" + "a\tb\tc\n")

    def test_full_names_accepted(self):
        text = ("Authors\tTitle\tAbstract\tCategories\tResearch Areas\t"
                "Total Times Cited\tTimes Cited in CC\nA\tT\tab\tP\tS\t0\t0\n")
        records, errors = parse(text)
        assert len(records) == 1 and not errors


class TestFilterInvalid:
    def test_empty_abstract_removed(self):
        r = ingest.RawRecord(abstract="", categories=["Physics"])
        assert ingest.filter_invalid([r]) == []

    def test_no_categories_removed(self):
        r = ingest.RawRecord(abstract="text", categories=[])
        assert ingest.filter_invalid([r]) == []

    def test_valid_kept_in_order(self):
        rs = [ingest.RawRecord(abstract=f"t{i}", categories=["C"]) for i in range(3)]
        assert ingest.filter_invalid(rs) == rs

    def test_idempotent(self):
        rs = [
            ingest.RawRecord(abstract="", categories=["C"]),
            ingest.RawRecord(abstract="x", categories=["C"]),
            ingest.RawRecord(abstract="y", categories=[]),
        ]
        once = ingest.filter_invalid(rs)
        assert ingest.filter_invalid(once) == once

    def test_many_categories_warn_but_keep(self, caplog):
        r = ingest.RawRecord(abstract="x", categories=[f"c{i}" for i in range(7)])
        with caplog.at_level("WARNING"):
            kept = ingest.filter_invalid([r])
        assert kept == [r]
        assert any("categories" in m for m in caplog.messages)


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

    def test_idempotent(self):
        once, _ = ingest.split_concatenated_headings("BackgroundTau AimsB", FORMS)
        again, n = ingest.split_concatenated_headings(once, FORMS)
        assert again == once and n == 0


class TestWordCount:
    @pytest.mark.parametrize("text,expected", [
        ("Tau Reduction Diminishes", 3),
        ("z-score  test", 2),
        ("", 0),
        ("  ", 0),
        ("one", 1),
    ])
    def test_counts(self, text, expected):
        assert ingest.word_count(text) == expected


class TestFilterByLength:
    def make(self, n):
        return ingest.Document(abstract="w " * n, categories=["C"], word_count=n)

    @pytest.mark.parametrize("n,kept", [(29, False), (30, True), (500, True), (501, False)])
    def test_boundaries(self, n, kept):
        docs = [self.make(n)]
        assert (len(ingest.filter_by_length(docs, 30, 500)) == 1) is kept

    def test_idempotent_and_partition(self):
        docs = [self.make(n) for n in (1, 29, 30, 100, 500, 501, 900)]
        kept = ingest.filter_by_length(docs, 30, 500)
        assert ingest.filter_by_length(kept, 30, 500) == kept
        below = sum(1 for d in docs if d.word_count < 30)
        above = sum(1 for d in docs if d.word_count > 500)
        assert len(kept) + below + above == len(docs)


class TestLengthHistogram:
    def test_basic(self):
        docs = [ingest.Document(word_count=n) for n in (3, 3, 5)]
        counts, mean = ingest.length_histogram(docs)
        assert counts == {3: 2, 5: 1}
        assert mean == pytest.approx(11 / 3)

    def test_empty(self):
        counts, mean = ingest.length_histogram([])
        assert counts == {} and mean is None


class TestRunIngest:
    def test_five_row_fixture(self, export_file):
        with open(export_file, encoding="utf-8") as f:
            docs, report, errors = ingest.run_ingest(f)
        assert report.n_parsed == 5
        assert report.n_after_field_filter == 4
        assert report.n_after_length_filter == 3
        assert report.n_headings_split == 1
        assert not errors
        assert len(docs) == 3
        assert docs[2].abstract.startswith("Conclusion Higher")

    def test_counts_monotone(self, export_file):
        with open(export_file, encoding="utf-8") as f:
            _, report, _ = ingest.run_ingest(f)
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
    record = ingest.RawRecord(authors, title, abstract, categories, areas, total, core)
    text = ingest.corpus_header() + "\n" + ingest.format_record(record) + "\n"
    parsed, errors = parse(text)
    assert not errors
    assert parsed == [record]
