import dataclasses
import io
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compare_reference as ref
from conftest import dictionary_of
from lexicorp import listcompare as lc
from lexicorp.config import InputError


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
    return dictionary_of([(w, c, c + 1) for w, c in words_with_counts])


def stemmed(entries):
    return tuple(lc.StemmedEntry(s, sfi, (s,)) for s, sfi in entries)


def positions(ranks_a, ranks_b):
    """(pa, pb): each word's 0-based position in two orderings of the same
    words, taken in the order of `ranks_a`."""
    pos_b = {w: i for i, w in enumerate(ranks_b)}
    return np.arange(len(ranks_a)), np.array([pos_b[w] for w in ranks_a], dtype=np.intp)


def same_interval_share(ranks_a, ranks_b, width):
    """What `compare` reports for one width over two orderings of the same words."""
    return lc._interval_overlaps(*positions(ranks_a, ranks_b), [width])[width]


def top_bottom_counts(ranks_a, ranks_b, n):
    """What `compare` reports as (top-n, bottom-n) overlap for one n."""
    top, bottom = lc._top_bottom_overlaps(*positions(ranks_a, ranks_b), len(ranks_a), [n])
    return top[n], bottom[n]


def compare_orderings(ranks_a, ranks_b, **kwargs):
    """`compare` on a dictionary in ordering A and a list in ordering B of
    the same words."""
    n = len(ranks_a)
    d = make_dict([(w, n + 1 - i) for i, w in enumerate(ranks_a)])
    return lc.compare(d, stemmed([(w, float(n - i)) for i, w in enumerate(ranks_b)]), **kwargs)


def spearman(xs, ys):
    """SRC as `compare` computes it from doc counts xs and frequency indices ys."""
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    return lc._pearson(lc._fractional_ranks(x), lc._fractional_ranks(y), "src")


def pearson(xs, ys):
    return lc._pearson(np.array(xs, dtype=float), np.array(ys, dtype=float), "pcc")


# ---------------------------------------------------------------- tests

class TestReadWordList:
    def test_full_columns(self):
        wl = lc.read_word_list(io.StringIO("headword,sfi,u,d\nfoo,60.5,100,0.9\n"))
        assert wl == (lc.WordListEntry("foo", 60.5, 100.0, 0.9),)

    def test_sfi_only(self):
        wl = lc.read_word_list(io.StringIO("bar,42.0\n"))
        assert wl[0].sfi == 42.0 and wl[0].u is None

    def test_no_sfi_column(self):
        wl = lc.read_word_list(io.StringIO("word\nfoo\nbar\n"))
        assert len(wl) == 2 and all(e.sfi is None for e in wl)

    @pytest.mark.parametrize("text,where", [
        ("foo,nan\n", "row 1: sfi 'nan'"),
        ("foo,50\nbar,NaN,1,0.5\n", "row 2: sfi 'NaN'"),
        ("foo,50,inf,0.5\n", "row 1: u 'inf'"),
        ("headword,sfi,u,d\nfoo,50,1,1e999\n", "row 2: d '1e999'"),
        ("foo,-Infinity\n", "row 1: sfi '-Infinity'"),
        ("\nheadword,sfi\nfoo,nan\n", "row 3: sfi 'nan'"),  # CSV rows, blank ones too
    ])
    def test_non_finite_values_are_input_errors(self, text, where):
        with pytest.raises(InputError, match=where):
            lc.read_word_list(io.StringIO(text))

    def test_out_of_range_values_warn(self, caplog):
        with caplog.at_level("WARNING"):
            lc.read_word_list(io.StringIO("foo,150\nbar,50,1,2\n"))
        assert len(caplog.messages) == 2

    def test_out_of_range_values_are_counted_per_kind(self, caplog):
        text = "headword,sfi,u,d\n" + "".join(f"w{i},-{i},1,{i + 2}\n" for i in range(1000))
        with caplog.at_level("WARNING"):
            wl = lc.read_word_list(io.StringIO(text))
        assert len(wl) == 1000 and wl[3] == lc.WordListEntry("w3", -3.0, 1.0, 5.0)
        assert caplog.messages == [
            "999 row(s) hold a frequency index outside [0, 100]; first rows: 3, 4, 5, 6, 7",
            "1000 row(s) hold a dispersion outside [0, 1]; first rows: 2, 3, 4, 5, 6"]

    @pytest.mark.parametrize("text", ["headword,sfi,u,d\nfoo,60.5,100,0.9\nbar,20,3,0.1\n",
                                      "word\nfoo\nbar\n", "foo,60.5\nbar,20\n"])
    def test_leading_blank_rows_keep_the_entries(self, text):
        want = lc.read_word_list(io.StringIO(text))
        assert len(want) == 2
        assert lc.read_word_list(io.StringIO("\n" + text)) == want
        assert lc.read_word_list(io.StringIO("\r\n , \n" + text)) == want


class TestStemMerge:
    def test_merges_and_averages(self):
        wl = (lc.WordListEntry("accumulate", 60.0), lc.WordListEntry("accumulation", 50.0))
        sm = lc.stem_merge(wl)
        assert len(sm) == 1
        assert sm[0].stem == "accumul"
        assert sm[0].sfi_avg == pytest.approx(55.0)
        assert sm[0].source_headwords == ("accumulate", "accumulation")

    def test_already_a_stem(self):
        sm = lc.stem_merge((lc.WordListEntry("acid", 33.0),))
        assert sm == (lc.StemmedEntry("acid", 33.0, ("acid",)),)

    def test_count_shrinks(self):
        wl = [lc.WordListEntry(w, 50.0) for w in ("acid", "acidic", "acids", "decay", "decays")]
        assert len(lc.stem_merge(wl)) == 2

    def test_ordered_by_average_descending(self):
        wl = (
            lc.WordListEntry("decay", 40.0),
            lc.WordListEntry("acid", 70.0),
            lc.WordListEntry("acidic", 60.0),
        )
        assert [e.stem for e in lc.stem_merge(wl)] == ["acid", "decay"]


class TestCoverage:
    def test_full(self):
        d = make_dict([("a", 5), ("b", 4)])
        r = lc.compare(d, stemmed([("a", 1), ("b", 1)]))
        assert (r.coverage_count, r.coverage_pct, r.missing_words) == (2, 1.0, [])

    def test_disjoint(self):
        d = make_dict([("a", 5)])
        r = lc.compare(d, stemmed([("x", 1), ("y", 1)]))
        assert r.coverage_count == 0 and r.coverage_pct == 0.0 and r.missing_words == ["x", "y"]

    def test_partial_identity(self):
        d = make_dict([("a", 5), ("b", 4)])
        r = lc.compare(d, stemmed([("a", 1), ("z", 1)]))
        assert r.coverage_count + len(r.missing_words) == 2
        assert r.coverage_pct == pytest.approx(0.5)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty word list"):
            lc.compare(make_dict([("a", 1)]), ())


class TestFragmentCoverage:
    def test_toy(self):
        d = make_dict([(w, 10 - i) for i, w in enumerate("abcdefghij")])
        wl = stemmed([("b", 9), ("e", 6), ("j", 1), ("zz", 0)])
        rows = lc.compare(d, wl, fragment_ks=[2, 5, 10]).fragment_table
        assert rows[0] == (2, 1, 0.25, ["b"])
        assert rows[1] == (5, 2, 0.5, ["e"])
        assert rows[2] == (10, 3, 0.75, ["j"])

    def test_whole_dictionary_equals_coverage(self):
        d = make_dict([(w, 5 - i) for i, w in enumerate("abcde")])
        wl = stemmed([("a", 2), ("c", 1), ("nope", 0)])
        r = lc.compare(d, wl, fragment_ks=[len(d)])
        assert r.fragment_table[0][1] == r.coverage_count

    def test_oversized_fragment_clamped(self, caplog):
        d = make_dict([("a", 3)])
        with caplog.at_level("WARNING"):
            rows = lc.compare(d, stemmed([("a", 1)]), fragment_ks=[99]).fragment_table
        assert rows[0][0] == 1
        assert any("clamped" in m for m in caplog.messages)


class TestLastPosition:
    def test_toy(self):
        d = make_dict([(w, 10 - i) for i, w in enumerate("abcdefghij")])
        wl = stemmed([("c", 9), ("h", 6), ("a", 5)])  # list order by sfi
        # "c" is at dict rank 3, "h" at 8 and "a" at 1: the deepest is 8
        assert lc.compare(d, wl).last_position_table == [(3, 8, 0.8)]

    def test_single_top_word(self):
        d = make_dict([("top", 9), ("rest", 1)])
        rows = lc.compare(d, stemmed([("top", 50)])).last_position_table
        assert rows == [(1, 1, 0.5)]

    def test_deepest_rank_of_each_list_fragment(self):
        rng = random.Random(5)
        words = [f"w{i:03d}" for i in range(300)]
        d = make_dict([(w, 300 - i) for i, w in enumerate(words)])
        listed = rng.sample(words, 250)
        r = lc.compare(d, stemmed([(w, 250.0 - i) for i, w in enumerate(listed)]))
        rank = {w: i for i, w in enumerate(words, 1)}
        assert r.last_position_table == [
            (m, max(rank[w] for w in listed[:m]), max(rank[w] for w in listed[:m]) / 300)
            for m in (100, 200, 250)]


class TestIntervalOverlap:
    A = list("abcdefghij")
    B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]

    def test_single_interval_is_one(self):
        assert same_interval_share(self.A, self.B, 10) == 1.0

    def test_width_five(self):
        assert same_interval_share(self.A, self.B, 5) == pytest.approx(0.8)

    def test_width_three_with_short_tail(self):
        assert same_interval_share(self.A, self.B, 3) == pytest.approx(0.8)

    def test_symmetry(self):
        for w in (1, 2, 3, 4, 5, 7, 10):
            assert same_interval_share(self.A, self.B, w) == same_interval_share(self.B, self.A, w)

    def test_bad_width(self):
        # compare keeps only the widths of at least 1
        assert list(compare_orderings(self.A, self.B, widths=[0, 5]).interval_overlaps) == [5]


class TestTopBottomOverlap:
    A = list("abcdefghij")
    B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]

    def test_top(self):
        assert top_bottom_counts(self.A, self.B, 3)[0] == 3
        assert top_bottom_counts(self.A, self.B, 4)[0] == 3

    def test_bottom(self):
        assert top_bottom_counts(self.A, self.B, 3)[1] == 2

    def test_full_length(self):
        n = len(self.A)
        assert top_bottom_counts(self.A, self.B, n) == (n, n)

    def test_n_out_of_range(self):
        # compare keeps only the sizes from 0 to the number of common words
        report = compare_orderings(self.A, self.B, tops=[-1, 0, 10, 11])
        assert list(report.top_overlap) == list(report.bottom_overlap) == [0, 10]

    def test_repeated_word_rejected(self):
        d = make_dict([("a", 2), ("b", 1)])
        for wl in (stemmed([("a", 2.0), ("a", 1.0), ("b", 0.5)]),
                   stemmed([("a", 2.0), ("zz", 1.0), ("zz", 0.5)])):
            with pytest.raises(ValueError, match="repeat"):
                lc.compare(d, wl)


class TestSameRank:
    def test_toy(self):
        A = list("abcdefghij")
        B = ["b", "a", "c", "f", "e", "d", "j", "i", "h", "g"]
        assert compare_orderings(A, B).same_rank_words == [("c", 3), ("e", 5)]

    def test_identical(self):
        A = list("xyz")
        assert compare_orderings(A, A).same_rank_words == [("x", 1), ("y", 2), ("z", 3)]

    def test_derangements_of_three(self):
        base = ["a", "b", "c"]
        derangements = [p for p in itertools.permutations(base)
                        if all(x != y for x, y in zip(p, base))]
        assert len(derangements) == 2  # brute-force checked
        for p in derangements:
            assert compare_orderings(base, list(p)).same_rank_words == []


class TestCorrelations:
    def test_identical_orderings_exactly_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_orderings_exactly_minus_one(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_pearson_exact_line(self):
        xs = [1.5, 2.25, 7.75, 9.5]
        assert pearson(xs, [2 * x for x in xs]) == 1.0

    def test_pearson_log_equals_pearson_of_logs(self):
        d = make_dict([("a", 1), ("b", 2), ("c", 4)])
        r = lc.compare(d, stemmed([("c", 81.0), ("b", 9.0), ("a", 3.0)]))
        want = oracle_pearson([math.log(x) for x in (4, 2, 1)],
                              [math.log(y) for y in (81, 9, 3)])
        assert r.pcc_log == pytest.approx(want, abs=1e-12)

    def test_zero_variance_is_none_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            assert spearman([1, 1, 1], [5, 6, 7]) is None
            assert pearson([1, 1], [5, 6]) is None
        assert caplog.messages == ["src unavailable: zero variance",
                                   "pcc unavailable: zero variance"]

    def test_log_of_non_positive_is_none_naming_the_word(self, caplog):
        d = make_dict([("word_x", 3), ("word_y", 2)])
        with caplog.at_level("WARNING"):
            r = lc.compare(d, stemmed([("word_y", 4.0), ("word_x", 0.0)]))
        assert r.pcc_log is None and r.src == r.pcc == -1.0
        assert caplog.messages == ["pcc_log unavailable: non-positive value under log for word_x"]

    def test_too_few_pairs(self, caplog):
        with caplog.at_level("WARNING"):
            assert spearman([1], [2]) is None
        assert caplog.messages == ["src unavailable: fewer than 2 common words"]

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
            got = spearman(xs, ys)
            if got is None:
                continue  # constant vector drawn
            assert got == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)
            assert pearson(xs, ys) == pytest.approx(oracle_pearson(xs, ys), abs=1e-12)

    def test_no_ties_shortcut_agrees(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 60)
            xs = rng.sample(range(100_000), n)
            ys = rng.sample(range(100_000), n)
            assert spearman(xs, ys) == pytest.approx(oracle_spearman_no_ties(xs, ys), abs=1e-12)


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
        wl = tuple(lc.StemmedEntry(s, None, (s,)) for s in "abc")
        with caplog.at_level("WARNING"):
            report = lc.compare(d, wl)
        assert caplog.messages == [
            "3 of 3 stems have no frequency index (a, b, c); rank analyses skipped"]
        assert report.coverage_count == 3
        assert report.src is None
        assert report.interval_overlaps == {}

    def test_warning_names_the_first_five_stems_without_sfi(self, caplog):
        d, _ = self.build_inputs()
        wl = (lc.StemmedEntry("a", 50.0, ("a",)),) + tuple(
            lc.StemmedEntry(s, None, (s,)) for s in "bcdefgh")
        with caplog.at_level("WARNING"):
            report = lc.compare(d, wl)
        assert caplog.messages == [
            "7 of 8 stems have no frequency index (b, c, d, e, f, ...); rank analyses skipped"]
        assert report.common_words == []


@settings(max_examples=100, deadline=None)
@given(st.permutations(list("abcdefghijkl")), st.integers(1, 12))
def test_interval_overlap_symmetric_property(perm, width):
    base = list("abcdefghijkl")
    assert same_interval_share(base, perm, width) == same_interval_share(perm, base, width)


def test_default_widths_ladder():
    widths = lc.default_widths(891)
    assert widths[:3] == [5, 10, 15]
    assert widths[-2:] == [890, 891]
    assert lc.default_widths(3) == [3]


# Differential tests against the set-based overlaps in compare_reference.


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations([f"w{i}" for i in range(n)])),
       st.data())
def test_overlaps_match_reference(a, data):
    b = data.draw(st.permutations(a))
    n = data.draw(st.integers(0, len(a)))
    assert top_bottom_counts(a, b, n) == (ref.top_n_overlap(a, b, n),
                                          ref.bottom_n_overlap(a, b, n))
    width = data.draw(st.integers(1, len(a) + 2))
    assert same_interval_share(a, b, width) == ref.interval_overlap(a, b, width)


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


# Differential test of `compare` against the pre-rank-array code in
# compare_reference. A correlation the old code raised on is None now.

POOL = [f"s{i:02d}" for i in range(40)]


@st.composite
def compare_inputs(draw):
    n_dict = draw(st.integers(0, 30))
    words = draw(st.permutations(POOL))[:n_dict]
    doc = draw(st.lists(st.integers(1, 4), min_size=n_dict, max_size=n_dict))  # ties
    extra = draw(st.lists(st.integers(0, 2), min_size=n_dict, max_size=n_dict))
    d = dictionary_of([(w, c, c + e) for w, c, e in zip(words, doc, extra)])
    # distinct stems, some of them not in the dictionary
    stems = draw(st.permutations(POOL))[:draw(st.integers(1, 40))]
    sfi = st.sampled_from([1.0, 2.5, 50.0]) | st.floats(0.01, 100)  # ties, and not
    if draw(st.integers(0, 3)) == 0:
        sfi |= st.sampled_from([0.0, -1.5])  # which fail pcc_log
    sfi_of = draw(st.sampled_from([sfi, sfi, st.none(), sfi | st.none()]))
    wl = [lc.StemmedEntry(s, draw(sfi_of), (s,) * draw(st.integers(1, 2))) for s in stems]
    if all(e.sfi_avg is not None for e in wl):
        wl.sort(key=lambda e: (-e.sfi_avg, e.stem))  # the order stem_merge returns
    sizes = st.none() | st.lists(st.integers(-3, 45), max_size=8)
    return d, tuple(wl), draw(sizes), draw(sizes), draw(sizes)


def _none_on_error(correlation):
    def wrapped(*args):
        try:
            return correlation(*args)
        except ValueError:
            return None
    return wrapped


@settings(max_examples=400, deadline=None)
@given(compare_inputs())
def test_compare_matches_reference(inputs):
    d, wl, widths, tops, fragment_ks = inputs
    got = lc.compare(d, wl, widths=widths, tops=tops, fragment_ks=fragment_ks)
    with mock.patch.multiple(ref, **{name: _none_on_error(getattr(ref, name))
                                     for name in ("spearman", "pearson", "pearson_log")}):
        want = ref.compare(d, wl, widths=widths, tops=tops, fragment_ks=fragment_ks)
    for f in dataclasses.fields(lc.ComparisonReport):
        # repr tells floats apart bit for bit, and numpy scalars from Python ones
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
