"""Word-over-document distribution statistics and power-law tail fitting.

The central objects are the exact histogram (how many words sit in
exactly n documents), its cumulative form g(n), and the tail curve
N_x = W - g(x), the number of words appearing in more than x documents.
The tail is modelled as N_x = beta / x**alpha and fitted by least
squares on the raw counts. For a given alpha the best beta has a closed
form, so the fit is a golden-section search over alpha alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dictionary import Dictionary


@dataclass(frozen=True)
class DocFreqHistogram:
    """counts[n] = number of words contained in exactly n documents."""

    counts: dict[int, int]
    total_words: int


@dataclass(frozen=True)
class TailCurve:
    """points[i] = (x, number of words with doc_count > x), x ascending."""

    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ParetoFit:
    alpha: float
    beta: float
    mse: float
    fit_range: tuple[float, float]
    x_m: float
    n_points: int


def histogram(d: Dictionary) -> DocFreqHistogram:
    values, counts = np.unique(d.doc, return_counts=True)
    return DocFreqHistogram(dict(zip(values.tolist(), counts.tolist())), len(d))


def cumulative(hist: DocFreqHistogram) -> list[tuple[int, int]]:
    """g(n) = number of words contained in n or fewer documents."""
    out = []
    running = 0
    for n in sorted(hist.counts):
        running += hist.counts[n]
        out.append((n, running))
    return out


def tail(hist: DocFreqHistogram) -> TailCurve:
    """The complement W - g(x) at every distinct document count x."""
    points = [(n, hist.total_words - g) for n, g in cumulative(hist)]
    return TailCurve(tuple(points))


def _usable_points(curve: TailCurve, fit_range=None) -> tuple[np.ndarray, np.ndarray]:
    pts = [(x, n) for x, n in curve.points if n > 0]
    if fit_range is not None:
        lo, hi = fit_range
        pts = [(x, n) for x, n in pts if lo <= x <= hi]
    xs = np.array([p[0] for p in pts], dtype=float)
    ns = np.array([p[1] for p in pts], dtype=float)
    return xs, ns


def loglog_slope(curve: TailCurve, fit_range=None) -> float:
    """Slope of the least-squares line through (log x, log N_x)."""
    xs, ns = _usable_points(curve, fit_range)
    if len(xs) < 2:
        raise ValueError("need at least 2 positive tail points")
    slope, _ = np.polyfit(np.log(xs), np.log(ns), 1)
    return float(slope)


# Bracket of the alpha search. Below 0: for a non-increasing tail,
# dMSE/dalpha at alpha = 0 is a positive factor times cov(n, ln x) <= 0,
# so the minimum cannot lie below 0. Above 10: every tail fitted in the
# tests and the benchmark has alpha between 0.3 and 1.0.
_ALPHA_BRACKET = (0.0, 10.0)
_INV_PHI = (5**0.5 - 1) / 2


def fit_pareto(curve: TailCurve, fit_range=None) -> ParetoFit:
    """Least-squares fit of N_x = beta / x**alpha to the tail curve.

    Points with non-positive N_x are excluded; the fit minimises the
    mean squared error on the raw count scale over the (possibly
    restricted) range. For fixed alpha the best beta has a closed form
    (variable projection), so only alpha is searched, by golden section.
    Raises ValueError when fewer than 3 usable points remain or when the
    best alpha lies on an edge of the search bracket.
    """
    xs, ns = _usable_points(curve, fit_range)
    if len(xs) < 3:
        raise ValueError("insufficient tail data: need at least 3 positive points")

    def beta_mse(alpha: float) -> tuple[float, float]:
        u = xs**-alpha
        beta = float(ns @ u / (u @ u))
        return beta, float(np.mean((ns - beta * u) ** 2))

    a, b = _ALPHA_BRACKET
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f_c, f_d = beta_mse(c)[1], beta_mse(d)[1]
    while b - a > 1e-12:
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _INV_PHI * (b - a)
            f_c = beta_mse(c)[1]
        else:
            a, c, f_c = c, d, f_d
            d = a + _INV_PHI * (b - a)
            f_d = beta_mse(d)[1]
    alpha = (a + b) / 2
    for edge in _ALPHA_BRACKET:
        if abs(alpha - edge) < 1e-9:
            raise ValueError(f"fitted alpha hit the search bracket edge {edge:g}")
    beta, mse = beta_mse(alpha)
    return ParetoFit(
        alpha=alpha,
        beta=beta,
        mse=mse,
        fit_range=(float(xs.min()), float(xs.max())),
        x_m=float(xs.min()),
        n_points=len(xs),
    )


def gen_synthetic_corpus(
    vocab_size: int,
    n_docs: int,
    zipf_exponent: float,
    seed: int,
    doc_len: int = 200,
) -> Iterator[tuple[str, list[str]]]:
    """Yield (doc_id, tokens) pairs with Zipfian word frequencies.

    Word r (1-based rank) is drawn with probability proportional to
    r**-zipf_exponent. Tokens carry a digit so the text pipeline passes
    them through unchanged, which makes generated corpora exactly
    recountable after a full ingest-build round trip.
    """
    if vocab_size < 1 or n_docs < 1 or doc_len < 1 or zipf_exponent < 0:
        raise ValueError("all generator parameters must be positive")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=float)
    probs = ranks**-zipf_exponent
    probs /= probs.sum()
    width = len(str(vocab_size))
    words = [f"w{r:0{width}d}" for r in range(1, vocab_size + 1)]
    draws = rng.choice(vocab_size, size=(n_docs, doc_len), p=probs)
    for i in range(n_docs):
        yield f"doc{i + 1}", [words[j] for j in draws[i]]
