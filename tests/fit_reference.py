"""The tail fit as it was before the variable-projection search: a log-log
line fit seeds a derivative-free Nelder-Mead simplex over (alpha, beta),
and whichever of seed and polish has the lower MSE wins. Kept verbatim
as the oracle that tests/test_lexstats.py checks `fit_pareto` against.
"""

from __future__ import annotations

import numpy as np

from lexicorp.lexstats import ParetoFit, TailCurve, _usable_points


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
