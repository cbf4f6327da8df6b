import io
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compare_reference as ref
from lexicorp import listcompare as lc
from lexicorp.config import InputError
from lexicorp.dictionary import DictEntry, Dictionary


# ---------------------------------------------------------------- oracles

def oracle_ranks(values):
    """Textbook fractional ranking: average the 1-based positions of ties."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        avg = sum(range(i + 1, j + 2)) / (j - i + 1)
        for k in range(i, j + 1):
            ranks[indexed[k]] = avg
        i = j + 1
    return ranks


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_ranks(xs), oracle_ranks(ys))


def oracle_spearman_no_ties(xs, ys):
    """1 - 6*sum(d^2)/(n^3 - n); valid only for all-distinct values."""
    rx, ry = oracle_ranks(xs), oracle_ranks(ys)
    n = len(xs)
    d2 = math.fsum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n**3 - n)


# ---------------------------------------------------------------- fixtures

def make_dict(words_with_counts):
    return Dictionary([DictEntry(w, c, c + 1) for w, c in words_with_counts])


def stemmed(entries):
    return lc.StemmedWordList(tuple(
        lc.StemmedEntry(s, sfi, (s,)) for s, sfi in entries
    ))


# ---------------------------------------------------------------- tests

class TestReadWordList:
    def test_full_columns(self):
        wl = lc.read_word_list(io.StringIO("headword,sfi,u,d\nfoo,60.5,100,0.9\n"))
        assert wl.entries == (lc.WordListEntry("foo", 60.5, 100.0, 0.9),)

    def test_sfi_only(self):
        wl = lc.read_word_list(io.StringIO("bar,42.0\n"))
        assert wl.entries[0].sfi == 42.0 and wl.entries[0].u is None

    def test_no_sfi_column(self):
        wl = lc.read_word_list(io.StringIO("word\nfoo\nbar\n"))
        assert len(wl) == 2 and all(e.sfi is None for e in wl.entries)

    @pytest.mark.parametrize("text,where", [
        ("foo,nan\n", "row 1: sfi 'nan'"),
        ("foo,50\nbar,NaN,1,0.5\n", "row 2: sfi 'NaN'"),
        ("foo,50,inf,0.5\n", "row 1: u 'inf'"),
        ("headword,sfi,u,d\nfoo,50,1,1e999\n", "row 2: d '1e999'"),
        ("foo,-Infinity\n", "row 1: sfi '-Infinity'"),
    ])
    def test_non_finite_values_are_input_errors(self, text, where):
        with pytest.raises(InputError, match=where):
            lc.read_word_list(io.StringIO(text))

    def test_out_of_range_values_warn(self, caplog):
        with caplog.at_level("WARNING"):
            lc.read_word_list(io.StringIO("foo,150\nbar,50,1,2\n"))
        assert len(caplog.messages) == 2


class TestStemMerge:
    def test_merges_and_averages(self):
        wl = lc.ExternalWordList((
            lc.WordListEntry("accumulate", 60.0),
            lc.WordListEntry("accumulation", 50.0),
        ))
        sm = lc.stem_merge(wl)
        assert len(sm) == 1
        assert sm.entries[0].stem == "accumul"
        assert sm.entries[0].sfi_avg == pytest.approx(55.0)
        assert sm.entries[0].source_headwords == ("accumulate", "accumulation")

    def test_already_a_stem(self):
        wl = lc.ExternalWordList((lc.WordListEntry("acid", 33.0),))
        sm = lc.stem_merge(wl)
        assert sm.entries[0].stem == "acid"
        assert sm.entries[0].sfi_avg == 33.0

    def test_count_shrinks(self):
        wl = lc.ExternalWordList(tuple(
            lc.WordListEntry(w, 50.0)
            for w in ("acid", "acidic", "acids", "decay", "decays")
        ))
        assert len(lc.stem_merge(wl)) == 2

    def test_ordered_by_average_descending(self):
        wl = lc.ExternalWordList((
            lc.WordListEntry("decay", 40.0),
            lc.WordListEntry("acid", 70.0),
            lc.WordListEntry("acidic", 60.0),
        ))
        assert [e.stem for e in lc.stem_merge(wl).entries] == ["acid", "decay"]


class TestCoverage:
    def test_full(self):
        d = make_dict([("a", 5), ("b", 4)])
        count, pct, missing = lc.coverage(d, stemmed([("a", 1), ("b", 1)]))
        assert (count, pct, missing) == (2, 1.0, [])

    def test_disjoint(self):
        d = make_dict([("a", 5)])
        count, pct, missing = lc.coverage(d, stemmed([("x", 1), ("y", 1)]))
        assert count == 0 and pct == 0.0 and missing == ["x", "y"]

    def test_partial_identity(self):
        d = make_dict([("a", 5), ("b", 4)])
        count, pct, missing = lc.coverage(d, stemmed([("a", 1), ("z", 1)]))
        assert count + len(missing) == 2
        assert pct == pytest.approx(0.5)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty word list"):
            lc.coverage(make_dict([("a", 1)]), lc.StemmedWordList(()))


class TestFragmentCoverage:
    def test_toy(self):
        d = make_dict([(w, 10 - i) for i, w in enumerate("abcdefghij")])
        wl = stemmed([("b", 9), ("e", 6), ("j", 1), ("zz", 0)])
        rows = lc.fragment_coverage(d, wl, [2, 5, 10])
        assert rows[0] == (2, 1, 0.25, ["b"])
        assert rows[1] == (5, 2, 0.5, ["e"])
        assert rows[2] == (10, 3, 0.75, ["j"])

    def test_whole_dictionary_equals_coverage(self):
        d = make_dict([(w, 5 - i) for i, w in enumerate("abcde")])
        wl = stemmed([("a", 2), ("c", 1), ("nope", 0)])
        rows = lc.fragment_coverage(d, wl, [len(d)])
        count, _, _ = lc.coverage(d, wl)
        assert rows[0][1] == count

    def test_oversized_fragment_clamped(self, caplog):
        d = make_dict([("a", 3)])
        with caplog.at_level("WARNING"):
            rows = lc.fragment_coverage(d, stemmed([("a", 1)]), [99])
        assert rows[0][0] == 1
        assert any("clamped" in m for m in caplog.messages)


class TestLastPosition:
    def test_toy(self):
        d = make_dict([(w, 10 - i) for i, w in enumerate("abcdefghij")])
        wl = stemmed([("c", 9), ("h", 6), ("a", 5)])  # list order by sfi
        rows = lc.last_position(d, wl, [1, 2, 3])
        assert rows[0] == (1, 3, 0.3)   # "c" at dict rank 3
        assert rows[1] == (2, 8, 0.8)   # deepest of {c,h}
        assert rows[2] == (3, 8, 0.8)   # "a" is rank 1, max stays 8

    def test_single_top_word(self):
        d = make_dict([("top", 9), ("rest", 1)])
        rows = lc.last_position(d, stemmed([("top", 50)]), [1])
        assert rows[0][1] == 1

    def test_absent_words_skipped(self, caplog):
        d = make_dict([("a", 9)])
        with caplog.at_level("WARNING"):
            rows = lc.last_position(d, stemmed([("zz", 60), ("a", 50)]), [2])
        assert rows == [(2, 1, 1.0)]
        assert any("not in dictionary" in m for m in caplog.messages)


class TestIntervalOverlap:
    A = list("abcdefghij")
    B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]

    def test_single_interval_is_one(self):
        assert lc.interval_overlap(self.A, self.B, 10) == 1.0

    def test_width_five(self):
        assert lc.interval_overlap(self.A, self.B, 5) == pytest.approx(0.8)

    def test_width_three_with_short_tail(self):
        assert lc.interval_overlap(self.A, self.B, 3) == pytest.approx(0.8)

    def test_symmetry(self):
        for w in (1, 2, 3, 4, 5, 7, 10):
            assert lc.interval_overlap(self.A, self.B, w) == \
                lc.interval_overlap(self.B, self.A, w)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            lc.interval_overlap(self.A, self.B, 0)

    def test_mismatched_words(self):
        with pytest.raises(ValueError):
            lc.interval_overlap(["a", "b"], ["a", "c"], 1)


class TestTopBottomOverlap:
    A = list("abcdefghij")
    B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]

    def test_top(self):
        assert lc.top_n_overlap(self.A, self.B, 3) == 3
        assert lc.top_n_overlap(self.A, self.B, 4) == 3

    def test_bottom(self):
        assert lc.bottom_n_overlap(self.A, self.B, 3) == 2

    def test_full_length(self):
        n = len(self.A)
        assert lc.top_n_overlap(self.A, self.B, n) == n
        assert lc.bottom_n_overlap(self.A, self.B, n) == n

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            lc.top_n_overlap(self.A, self.B, 11)

    def test_repeated_word_rejected(self):
        for overlap in (lc.top_n_overlap, lc.bottom_n_overlap, lc.interval_overlap):
            with pytest.raises(ValueError, match="repeat"):
                overlap(["a", "a", "b"], ["a", "b", "b"], 1)


class TestSameRank:
    def test_toy(self):
        A = list("abcdefghij")
        B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]
        assert lc.same_rank_words(A, B) == [("c", 3), ("e", 5)]

    def test_identical(self):
        A = list("xyz")
        assert lc.same_rank_words(A, A) == [("x", 1), ("y", 2), ("z", 3)]

    def test_derangements_of_three(self):
        base = ["a", "b", "c"]
        derangements = [p for p in itertools.permutations(base)
                        if all(x != y for x, y in zip(p, base))]
        assert len(derangements) == 2  # brute-force checked
        for p in derangements:
            assert lc.same_rank_words(base, list(p)) == []


class TestCorrelations:
    def test_identical_orderings_exactly_one(self):
        pairs = [(1, 10), (2, 20), (3, 30), (4, 40)]
        assert lc.spearman(pairs) == 1.0

    def test_reversed_orderings_exactly_minus_one(self):
        pairs = [(1, 40), (2, 30), (3, 20), (4, 10)]
        assert lc.spearman(pairs) == -1.0

    def test_pearson_exact_line(self):
        pairs = [(x, 2 * x) for x in (1.5, 2.25, 7.75, 9.5)]
        assert lc.pearson(pairs) == 1.0

    def test_pearson_log_equals_pearson_of_logs(self):
        pairs = [(1.0, 3.0), (2.0, 9.0), (4.0, 81.0)]
        got = lc.pearson_log(pairs)
        want = oracle_pearson([math.log(x) for x, _ in pairs],
                              [math.log(y) for _, y in pairs])
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero rank variance"):
            lc.spearman([(1, 5), (1, 6), (1, 7)])
        with pytest.raises(ValueError, match="zero variance"):
            lc.pearson([(1, 5), (1, 6)])

    def test_log_rejects_non_positive_with_label(self):
        with pytest.raises(ValueError, match="word_x"):
            lc.pearson_log([(0.0, 2.0), (3.0, 4.0)], labels=["word_x", "word_y"])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            lc.spearman([(1, 2)])

    def test_matches_oracles_on_random_vectors(self):
        rng = random.Random(99)
        for trial in range(100):
            n = rng.randint(2, 100)
            if trial % 2:
                xs = [rng.randint(0, 8) for _ in range(n)]  # ties likely
                ys = [rng.randint(0, 8) for _ in range(n)]
            else:
                xs = [rng.random() * 100 for _ in range(n)]
                ys = [rng.random() * 100 for _ in range(n)]
            pairs = list(zip(xs, ys))
            try:
                got = lc.spearman(pairs)
            except ValueError:
                continue  # constant vector drawn
            assert got == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)
            assert lc.pearson(pairs) == pytest.approx(oracle_pearson(xs, ys), abs=1e-12)

    def test_no_ties_shortcut_agrees(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 60)
            xs = rng.sample(range(100_000), n)
            ys = rng.sample(range(100_000), n)
            pairs = list(zip(xs, ys))
            assert lc.spearman(pairs) == pytest.approx(
                oracle_spearman_no_ties(xs, ys), abs=1e-12)


# Few distinct values, so most draws hold ties, plus both zeros, NaN and
# the infinities, which must rank exactly as the loop in compare_reference.
RANKED = st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf, -math.inf])
                  | st.floats(allow_nan=True), max_size=40)


@settings(max_examples=500, deadline=None)
@given(RANKED)
def test_fractional_ranks_match_reference(values):
    values = np.array(values, dtype=float)
    assert np.array_equal(lc._fractional_ranks(values), ref.fractional_ranks(values))


class TestCompareDriver:
    def build_inputs(self):
        d = make_dict([(w, 20 - i) for i, w in enumerate("abcdefghij")])
        entries = [("b", 90.0), ("a", 80.0), ("c", 70.0), ("f", 60.0),
                   ("e", 50.0), ("d", 40.0), ("zz", 30.0)]
        return d, stemmed(entries)

    def test_report_contents(self):
        d, wl = self.build_inputs()
        report = lc.compare(d, wl, widths=[2, 6], tops=[2, 6])
        assert report.coverage_count == 6
        assert report.missing_words == ["zz"]
        assert report.coverage_count + len(report.missing_words) == len(wl)
        assert report.common_words == ["b", "a", "c", "f", "e", "d"]
        assert report.interval_overlaps[6] == 1.0
        assert report.top_overlap[6] == 6
        assert report.bottom_overlap[6] == 6
        # order A: a b c d e f; order B: b a c f e d
        assert report.top_overlap[2] == 2
        assert report.bottom_overlap[2] == 1
        assert report.interval_overlaps[2] == pytest.approx(4 / 6)
        assert report.same_rank_words == [("c", 3), ("e", 5)]
        assert report.src is not None and -1 <= report.src <= 1

    def test_no_sfi_skips_rank_analyses(self, caplog):
        d, _ = self.build_inputs()
        wl = lc.StemmedWordList(tuple(
            lc.StemmedEntry(s, None, (s,)) for s in "abc"
        ))
        with caplog.at_level("WARNING"):
            report = lc.compare(d, wl)
        assert report.coverage_count == 3
        assert report.src is None
        assert report.interval_overlaps == {}


@settings(max_examples=100, deadline=None)
@given(st.permutations(list("abcdefghijkl")), st.integers(1, 12))
def test_interval_overlap_symmetric_property(perm, width):
    base = list("abcdefghijkl")
    assert lc.interval_overlap(base, perm, width) == \
        lc.interval_overlap(perm, base, width)


def test_default_widths_ladder():
    widths = lc.default_widths(891)
    assert widths[:3] == [5, 10, 15]
    assert widths[-2:] == [890, 891]
    assert lc.default_widths(3) == [3]


# Differential tests against the set-based overlaps in compare_reference.


@st.composite
def orderings(draw):
    """Two orderings of equal length; the second shares `shared` words with the first."""
    n = draw(st.integers(1, 40))
    a = draw(st.permutations([f"w{i}" for i in range(n)]))
    shared = draw(st.integers(0, n))
    b = draw(st.permutations(a[:shared] + [f"x{i}" for i in range(n - shared)]))
    return a, b


@settings(max_examples=300, deadline=None)
@given(orderings(), st.data())
def test_overlaps_match_reference(ab, data):
    a, b = ab
    n = data.draw(st.integers(0, len(a)))
    assert lc.top_n_overlap(a, b, n) == ref.top_n_overlap(a, b, n)
    assert lc.bottom_n_overlap(a, b, n) == ref.bottom_n_overlap(a, b, n)
    b = data.draw(st.permutations(a))
    width = data.draw(st.integers(1, len(a) + 2))
    assert lc.interval_overlap(a, b, width) == ref.interval_overlap(a, b, width)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.permutations(range(n))), st.data())
def test_compare_overlap_tables_match_reference(perm, data):
    # dictionary order w0, w1, ...; list order by frequency index follows `perm`
    n = len(perm)
    words = [f"w{i}" for i in range(n)]
    d = make_dict([(w, n - i) for i, w in enumerate(words)])
    wl = stemmed([(words[p], float(n - pos)) for pos, p in enumerate(perm)])
    order_b = [words[p] for p in perm]
    widths = tops = None
    if data.draw(st.booleans()):
        widths = data.draw(st.lists(st.integers(1, n + 3), max_size=6))
        tops = data.draw(st.lists(st.integers(0, n + 3), max_size=6))
    report = lc.compare(d, wl, widths=widths, tops=tops)
    widths = lc.default_widths(n) if widths is None else widths
    tops = [k for k in (lc.default_widths(n) if tops is None else tops) if k <= n]
    assert report.interval_overlaps == {
        w: ref.interval_overlap(words, order_b, w) for w in widths}
    assert report.top_overlap == {k: ref.top_n_overlap(words, order_b, k) for k in tops}
    assert report.bottom_overlap == {k: ref.bottom_n_overlap(words, order_b, k) for k in tops}
    assert all(type(v) is int for v in report.top_overlap.values())
