"""Word-over-document distribution statistics and power-law tail fitting.

The central objects are the exact histogram (how many words sit in
exactly n documents), its cumulative form g(n), and the tail curve
N_x = W - g(x), the number of words appearing in more than x documents.
The tail is modelled as N_x = beta / x**alpha; parameters are found by
least squares on the raw counts, seeded from a log-log line fit and
polished with a derivative-free simplex search.
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
    counts: dict[int, int] = {}
    for e in d.entries:
        counts[e.doc_count] = counts.get(e.doc_count, 0) + 1
    return DocFreqHistogram(counts, len(d.entries))


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


def pareto_tail(x, x_m: float, alpha: float):
    """P(X > x) for a Pareto(x_m, alpha) variable."""
    if x_m <= 0 or alpha <= 0:
        raise ValueError("x_m and alpha must be positive")
    x = np.asarray(x, dtype=float)
    out = np.where(x >= x_m, (x_m / np.maximum(x, x_m)) ** alpha, 1.0)
    return out if out.ndim else float(out)


def pareto_cdf(x, x_m: float, alpha: float):
    if x_m <= 0 or alpha <= 0:
        raise ValueError("x_m and alpha must be positive")
    x = np.asarray(x, dtype=float)
    out = np.where(x >= x_m, 1.0 - (x_m / np.maximum(x, x_m)) ** alpha, 0.0)
    return out if out.ndim else float(out)


def pareto_pdf(x, x_m: float, alpha: float):
    if x_m <= 0 or alpha <= 0:
        raise ValueError("x_m and alpha must be positive")
    x = np.asarray(x, dtype=float)
    out = np.where(x >= x_m, alpha * x_m**alpha / np.maximum(x, x_m) ** (alpha + 1), 0.0)
    return out if out.ndim else float(out)


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


def _mse(params: np.ndarray, xs: np.ndarray, ns: np.ndarray) -> float:
    alpha, beta = params
    return float(np.mean((ns - beta / xs**alpha) ** 2))


def _nelder_mead(f, x0, rel_tol=1e-9, max_iter=10_000):
    """Minimise f over R^2 until the relative improvement per iteration
    drops below rel_tol; returns (x_best, f_best)."""
    n = len(x0)
    scale = np.where(np.abs(x0) > 1e-12, np.abs(x0) * 0.05, 0.00025)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(n):
        v = simplex[0].copy()
        v[i] += scale[i]
        simplex.append(v)
    values = [f(v) for v in simplex]

    for _ in range(max_iter):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = values[0], values[-1]
        if best <= 0 or (worst - best) / max(best, 1e-300) < rel_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = f(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best]


def fit_pareto(curve: TailCurve, fit_range=None) -> ParetoFit:
    """Least-squares fit of N_x = beta / x**alpha to the tail curve.

    Points with non-positive N_x are excluded; the fit minimises the
    mean squared error on the raw count scale over the (possibly
    restricted) range. Raises ValueError when fewer than 3 usable points
    remain.
    """
    xs, ns = _usable_points(curve, fit_range)
    if len(xs) < 3:
        raise ValueError("insufficient tail data: need at least 3 positive points")

    slope, intercept = np.polyfit(np.log(xs), np.log(ns), 1)
    alpha0, beta0 = -slope, float(np.exp(intercept))

    params, mse = _nelder_mead(lambda p: _mse(p, xs, ns), np.array([alpha0, beta0]))
    # keep whichever of seed and polish explains the data better
    if _mse(np.array([alpha0, beta0]), xs, ns) < mse:
        params, mse = np.array([alpha0, beta0]), _mse(np.array([alpha0, beta0]), xs, ns)
    used_range = (float(xs.min()), float(xs.max()))
    return ParetoFit(
        alpha=float(params[0]),
        beta=float(params[1]),
        mse=float(mse),
        fit_range=used_range,
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
