import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictionary_reference
import fit_reference
from lexicorp import dictionary as dct
from lexicorp import lexstats as ls
from lexicorp.dictionary import DictEntry, Dictionary


def make_dict(doc_counts):
    return Dictionary([DictEntry(f"w{i}", c, c) for i, c in enumerate(doc_counts)])


def power_curve(alpha, beta, xs):
    return ls.TailCurve(tuple((int(x), beta / x**alpha) for x in xs))


class TestHistogram:
    def test_basic(self):
        h = ls.histogram(make_dict([1, 1, 2]))
        assert h.counts == {1: 2, 2: 1}
        assert h.total_words == 3

    def test_pruned_dictionary_has_no_low_bins(self):
        from lexicorp.dictionary import prune
        d = make_dict(range(1, 30))
        h = ls.histogram(prune(d, 10))
        assert all(n > 10 for n in h.counts)

    def test_empty(self):
        h = ls.histogram(make_dict([]))
        assert h.counts == {} and h.total_words == 0

    @given(st.lists(st.integers(1, 2**63 - 1) | st.integers(1, 9), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, doc_counts):
        d = make_dict(doc_counts)
        h = ls.histogram(d)
        assert h.counts == dictionary_reference.histogram_counts(d.entries)
        assert all(type(n) is int and type(k) is int for n, k in h.counts.items())
        assert h.total_words == len(doc_counts)


class TestCumulativeAndTail:
    def test_cumulative(self):
        h = ls.DocFreqHistogram({1: 2, 2: 1}, 3)
        assert ls.cumulative(h) == [(1, 2), (2, 3)]

    def test_tail(self):
        h = ls.DocFreqHistogram({1: 2, 2: 1}, 3)
        assert ls.tail(h).points == ((1, 1), (2, 0))

    def test_empty(self):
        h = ls.DocFreqHistogram({}, 0)
        assert ls.tail(h).points == ()

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_tail_complements_cumulative(self, doc_counts):
        h = ls.histogram(make_dict(doc_counts))
        g = dict(ls.cumulative(h))
        for x, n_x in ls.tail(h).points:
            assert g[x] + n_x == h.total_words
        ns = [n for _, n in ls.tail(h).points]
        assert ns == sorted(ns, reverse=True)
        assert ls.tail(h).points[-1][1] == 0


class TestFitAgainstReference:
    """The golden-section fit reaches an MSE no worse than the simplex fit
    it replaced (fit_reference) at nearly the same alpha."""

    @staticmethod
    def check(curve):
        new, old = ls.fit_pareto(curve), fit_reference.fit_pareto(curve)
        assert new.mse <= old.mse * (1 + 1e-9)
        assert new.alpha == pytest.approx(old.alpha, abs=1e-4)
        assert (new.fit_range, new.x_m, new.n_points) == (old.fit_range, old.x_m, old.n_points)

    @pytest.mark.parametrize("alpha", [0.3, 0.5752, 0.9])
    def test_noisy_curves_of_criterion_4(self, alpha):
        xs = np.arange(1, 2001)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            factors = 1.0 + 0.01 * rng.standard_normal(len(xs))
            self.check(ls.TailCurve(tuple(
                (int(x), 1000.0 / x**alpha * f) for x, f in zip(xs, factors))))

    @pytest.mark.parametrize("vocab,docs,zipf,seed", [
        (2000, 300, 1.0, 1), (5000, 500, 1.1, 2), (3000, 400, 0.8, 3), (1000, 200, 1.2, 4),
    ])
    def test_synthetic_dictionary_tails(self, vocab, docs, zipf, seed):
        d = dct.build(ls.gen_synthetic_corpus(vocab, docs, zipf, seed, doc_len=100))
        for threshold in (0, 10):
            self.check(ls.tail(ls.histogram(dct.prune(d, threshold))))

    def test_increasing_curve_hits_lower_edge(self):
        curve = ls.TailCurve(tuple((x, float(x)) for x in range(1, 50)))
        with pytest.raises(ValueError, match="bracket edge 0"):
            ls.fit_pareto(curve)

    def test_curve_steeper_than_bracket_hits_upper_edge(self):
        with pytest.raises(ValueError, match="bracket edge 10"):
            ls.fit_pareto(power_curve(12.0, 1e30, range(1, 50)))


class TestLogLogSlope:
    def test_exact(self):
        curve = power_curve(0.3, 100.0, range(1, 200))
        assert ls.loglog_slope(curve) == pytest.approx(-0.3, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ls.loglog_slope(ls.TailCurve(((1, 5),)))


class TestFitPareto:
    def test_exact_recovery(self):
        curve = power_curve(0.5, 1000.0, range(1, 10001))
        fit = ls.fit_pareto(curve)
        assert fit.alpha == pytest.approx(0.5, abs=1e-6)
        assert fit.beta == pytest.approx(1000.0, abs=1e-6)
        assert fit.mse < 1e-9
        assert fit.fit_range == (1.0, 10000.0)
        assert fit.x_m == 1.0

    def test_range_restriction(self):
        points = tuple((x, 1000.0 / x**0.5 if x <= 50 else 5.0) for x in range(1, 101))
        fit = ls.fit_pareto(ls.TailCurve(points), fit_range=(1, 50))
        assert fit.alpha == pytest.approx(0.5, abs=1e-6)
        assert fit.fit_range == (1.0, 50.0)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="insufficient tail data"):
            ls.fit_pareto(ls.TailCurve(((1, 10), (2, 0), (3, 0))))

    def test_zero_points_excluded(self):
        curve = ls.TailCurve(tuple((x, 100.0 / x) for x in range(1, 50)) + ((50, 0),))
        fit = ls.fit_pareto(curve)
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(5)
        xs = np.arange(1, 2001)
        noisy = tuple(
            (int(x), 1000.0 / x**0.5752 * (1 + 0.01 * rng.standard_normal()))
            for x in xs
        )
        fit = ls.fit_pareto(ls.TailCurve(noisy))
        assert fit.alpha == pytest.approx(0.5752, abs=0.05)

    def test_statistics_order_invariant(self):
        entries = [DictEntry(f"w{i}", c, c + 1) for i, c in enumerate([5, 3, 3, 2, 1, 1, 1])]
        a = ls.histogram(Dictionary(entries))
        b = ls.histogram(Dictionary(list(reversed(entries))))
        assert a == b


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = list(ls.gen_synthetic_corpus(10, 5, 1.0, seed=42))
        b = list(ls.gen_synthetic_corpus(10, 5, 1.0, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(ls.gen_synthetic_corpus(50, 5, 1.0, seed=1))
        b = list(ls.gen_synthetic_corpus(50, 5, 1.0, seed=2))
        assert a != b

    def test_vocab_size_one(self):
        docs = list(ls.gen_synthetic_corpus(1, 3, 1.0, seed=0, doc_len=5))
        assert all(set(tokens) == {"w1"} for _, tokens in docs)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            list(ls.gen_synthetic_corpus(0, 5, 1.0, 0))

    def test_zipfian_tail_roughly_linear_on_loglog(self):
        from lexicorp.dictionary import build
        d = dct.build(ls.gen_synthetic_corpus(2000, 400, 1.0, seed=3, doc_len=150))
        curve = ls.tail(ls.histogram(d))
        slope = ls.loglog_slope(curve)
        assert -3.0 < slope < -0.1

    def test_doc_shape(self):
        docs = list(ls.gen_synthetic_corpus(30, 7, 1.2, seed=9, doc_len=64))
        assert len(docs) == 7
        assert all(len(tokens) == 64 for _, tokens in docs)
        ids = [doc_id for doc_id, _ in docs]
        assert ids == [f"doc{i}" for i in range(1, 8)]
